#include "mac/gateway_mac.hpp"

#include <algorithm>

namespace blam {

AckPlanner::AckPlanner(const ChannelPlan& plan, double rx1_bandwidth_hz)
    : plan_{plan}, rx1_bandwidth_hz_{rx1_bandwidth_hz} {}

TxParams AckPlanner::ack_params(SpreadingFactor sf, double bandwidth_hz, int bytes) const {
  TxParams p;
  p.sf = sf;
  p.bandwidth_hz = bandwidth_hz;
  p.payload_bytes = bytes;
  return p.with_auto_ldro();
}

std::optional<AckPlan> AckPlanner::plan(Time uplink_end, SpreadingFactor uplink_sf,
                                        int uplink_channel, int ack_bytes) {
  // RX1: same SF on the paired downlink channel.
  {
    const TxParams params = ack_params(uplink_sf, rx1_bandwidth_hz_, ack_bytes);
    const Time start = uplink_end + kRx1Delay;
    const Time end = start + timing_.time_on_air(params);
    if (!conflicts(start, end)) {
      reserve(start, end);
      return AckPlan{start,       end, plan_.rx1_channel(uplink_channel),
                     uplink_sf,   rx1_bandwidth_hz_,
                     false};
    }
  }
  // RX2: fixed robust parameters.
  {
    const TxParams params =
        ack_params(plan_.rx2_spreading_factor(), plan_.rx2_bandwidth_hz(), ack_bytes);
    const Time start = uplink_end + kRx2Delay;
    const Time end = start + timing_.time_on_air(params);
    if (!conflicts(start, end)) {
      reserve(start, end);
      return AckPlan{start, end, plan_.rx2_channel(), plan_.rx2_spreading_factor(),
                     plan_.rx2_bandwidth_hz(), true};
    }
  }
  return std::nullopt;
}

bool AckPlanner::conflicts(Time start, Time end) const { return overlaps_tx(start, end); }

bool AckPlanner::overlaps_tx(Time start, Time end) const {
  // Reservations are few (pruned continuously); linear scan is fine and
  // avoids an interval-tree dependency.
  for (auto it = reservations_.begin() + static_cast<std::ptrdiff_t>(head_);
       it != reservations_.end(); ++it) {
    if (it->start < end && start < it->end) return true;
    if (it->start >= end) break;  // sorted by start: no later overlap possible
  }
  return false;
}

void AckPlanner::reserve(Time start, Time end) {
  const Interval interval{start, end};
  const auto it = std::upper_bound(
      reservations_.begin() + static_cast<std::ptrdiff_t>(head_), reservations_.end(), interval,
      [](const Interval& a, const Interval& b) { return a.start < b.start; });
  reservations_.insert(it, interval);
}

void AckPlanner::prune(Time now) {
  while (head_ < reservations_.size() && reservations_[head_].end < now) ++head_;
  // Reclaim the dead prefix once it dominates the buffer; erase shifts the
  // live tail within the existing capacity, so no reallocation happens.
  if (head_ >= 64 && head_ * 2 >= reservations_.size()) {
    reservations_.erase(reservations_.begin(),
                        reservations_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

}  // namespace blam
