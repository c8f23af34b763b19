// Gateway downlink scheduling (ACK planner).
//
// A LoRa gateway has a single half-duplex transmit chain: while it sends an
// ACK it cannot receive, and two ACKs cannot overlap. The planner keeps the
// reservation ledger of the TX chain: given a successfully decoded uplink it
// books the ACK into the device's RX1 slot (1 s after uplink end, same SF at
// 125 kHz), falls back to RX2 (2 s, SF12 at 500 kHz) when RX1
// collides with an existing reservation, and reports failure when both slots
// are taken — the device will then retransmit. The ledger also answers "was
// the gateway transmitting during [a, b)?", which destroys overlapping
// uplink receptions (half-duplex loss, a major ALOHA bottleneck at scale).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "lora/airtime.hpp"
#include "lora/channel_plan.hpp"
#include "lora/params.hpp"
#include "lora/tx_timing_cache.hpp"

namespace blam {

/// RX1 downlink bandwidth: 125 kHz, the paper's channel width. EU-style
/// long RX1 ACKs stress the half-duplex gateway the way large
/// confirmed-traffic deployments do.
inline constexpr double kRx1BandwidthHz = 125e3;

struct AckPlan {
  Time tx_start{};
  Time tx_end{};
  int channel{0};
  SpreadingFactor sf{SpreadingFactor::kSF12};
  double bandwidth_hz{500e3};
  /// True if the ACK uses the RX2 slot.
  bool rx2{false};
};

class AckPlanner {
 public:
  explicit AckPlanner(const ChannelPlan& plan) : plan_{plan} {}

  /// Books an ACK for an uplink that ended at `uplink_end` using SF
  /// `uplink_sf` on `uplink_channel`; `ack_bytes` sets the airtime.
  /// Returns nullopt when both RX slots conflict with reservations.
  [[nodiscard]] std::optional<AckPlan> plan(Time uplink_end, SpreadingFactor uplink_sf,
                                            int uplink_channel, int ack_bytes);

  /// True if a booked transmission overlaps [start, end).
  [[nodiscard]] bool overlaps_tx(Time start, Time end) const;

  /// Drops reservations that ended before `now`.
  void prune(Time now);

  struct Interval {
    Time start;
    Time end;
  };

  /// Live reservations in start order, for engine checkpoints.
  [[nodiscard]] std::span<const Interval> live() const {
    return {reservations_.data() + head_, reservations_.size() - head_};
  }

  /// Checkpoint restore: re-seeds the ledger (head_ resets to 0; conflict
  /// queries scan live entries only, so the offset is invisible).
  void restore_live(std::span<const Interval> intervals) {
    reservations_.assign(intervals.begin(), intervals.end());
    head_ = 0;
  }

 private:

  [[nodiscard]] bool conflicts(Time start, Time end) const;
  void reserve(Time start, Time end);

  [[nodiscard]] TxParams ack_params(SpreadingFactor sf, double bandwidth_hz, int bytes) const;

  // blam-ckpt: skip -- pure function of the scenario, rebuilt at construction
  ChannelPlan plan_;
  /// ACK airtimes recur for the same (SF, length) pairs; memoized.
  // blam-ckpt: skip -- memo cache; entries regenerate on demand from TxParams
  TxTimingCache timing_;
  // Reservations kept sorted by start time. Live entries are
  // [head_, size()); prune() advances head_ and compacts occasionally, so
  // the vector's capacity is retained and steady-state booking never
  // allocates (a deque here would churn its backing blocks on every prune).
  std::vector<Interval> reservations_;
  std::size_t head_{0};
};

}  // namespace blam
