#include "lora/interference.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace blam {

namespace {

// Goursaud & Gorce SIR matrix as used by NS-3 lorawan (dB).
// Rows: signal SF7..SF12; columns: interferer SF7..SF12.
constexpr std::array<std::array<double, 6>, 6> kIsolationDb{{
    {6.0, -16.0, -18.0, -19.0, -19.0, -20.0},
    {-24.0, 6.0, -20.0, -22.0, -22.0, -22.0},
    {-27.0, -27.0, 6.0, -23.0, -25.0, -25.0},
    {-30.0, -30.0, -30.0, 6.0, -26.0, -28.0},
    {-33.0, -33.0, -33.0, -33.0, 6.0, -29.0},
    {-36.0, -36.0, -36.0, -36.0, -36.0, 6.0},
}};

// Longest packet we model: SF12, 125 kHz, max LoRaWAN payload. Used only as
// a pruning horizon, so a generous constant is fine.
const Time kMaxAirtime = Time::from_seconds(5.0);

}  // namespace

double sir_isolation_db(SpreadingFactor signal, SpreadingFactor interferer) {
  return kIsolationDb[sf_index(signal)][sf_index(interferer)];
}

void InterferenceTracker::add(const AirPacket& packet) { packets_.push_back(packet); }

bool InterferenceTracker::survives(const AirPacket& packet) const {
  // Cumulative overlapping interference energy per interferer SF (joules,
  // scaled arbitrarily: built from mW powers, consistent with the signal).
  std::array<double, 6> interference_j{};
  bool any = false;
  for (auto it = packets_.begin() + static_cast<std::ptrdiff_t>(head_); it != packets_.end();
       ++it) {
    const AirPacket& other = *it;
    if (other.id == packet.id || other.channel != packet.channel) continue;
    const Time overlap_start = std::max(other.start, packet.start);
    const Time overlap_end = std::min(other.end, packet.end);
    if (overlap_end <= overlap_start) continue;
    const double overlap_s = (overlap_end - overlap_start).seconds();
    interference_j[sf_index(other.sf)] += dbm_to_watts(other.rx_power_dbm) * overlap_s;
    any = true;
  }
  if (!any) return true;

  const double signal_j =
      dbm_to_watts(packet.rx_power_dbm) * (packet.end - packet.start).seconds();
  for (std::size_t j = 0; j < interference_j.size(); ++j) {
    if (interference_j[j] <= 0.0) continue;
    const double sir_db = 10.0 * std::log10(signal_j / interference_j[j]);
    if (sir_db < sir_isolation_db(packet.sf, kAllSpreadingFactors[j])) return false;
  }
  return true;
}

void InterferenceTracker::prune(Time now) {
  // A packet can only overlap future receptions if it is still on air; a
  // reception in progress started at most kMaxAirtime ago, so anything that
  // ended more than kMaxAirtime before `now` is invisible to every live or
  // future reception.
  const Time horizon = now - kMaxAirtime;
  while (head_ < packets_.size() && packets_[head_].end < horizon &&
         packets_[head_].start < horizon) {
    ++head_;
  }
  // Compact once the dead prefix dominates: erase shifts the live tail
  // within the existing capacity, so no reallocation happens.
  if (head_ >= 64 && head_ * 2 >= packets_.size()) {
    packets_.erase(packets_.begin(), packets_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

}  // namespace blam
