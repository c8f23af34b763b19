// Co-channel interference and capture model for LoRa receptions.
//
// Re-implements the NS-3 lorawan `LoraInterferenceHelper` (Magrin et al.,
// based on Goursaud & Gorce): each reception is compared against the
// cumulative energy of overlapping transmissions, grouped by the interferer's
// spreading factor, and survives only if its signal-to-interference ratio
// clears the per-(signal SF, interferer SF) isolation threshold. The diagonal
// (co-SF) requires a +6 dB capture margin; imperfect SF orthogonality gives
// the negative off-diagonal entries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "lora/params.hpp"

namespace blam {

/// One packet as seen on the air at the receiver.
struct AirPacket {
  std::uint64_t id{0};
  Time start{};
  Time end{};
  double rx_power_dbm{0.0};
  SpreadingFactor sf{SpreadingFactor::kSF7};
  int channel{0};
};

/// Isolation threshold (dB): minimum SIR for a `signal` SF packet to survive
/// interference from a `interferer` SF packet.
[[nodiscard]] double sir_isolation_db(SpreadingFactor signal, SpreadingFactor interferer);

class InterferenceTracker {
 public:
  /// Registers a packet whose reception just started. `packet.end` must
  /// already be known (receptions have deterministic duration).
  void add(const AirPacket& packet);

  /// Evaluates whether `packet` (previously added) survives all interference
  /// that overlapped it. Call at `packet.end`. Does not remove the packet:
  /// it may still interfere with receptions in progress.
  [[nodiscard]] bool survives(const AirPacket& packet) const;

  /// Drops tracked packets that can no longer overlap receptions starting at
  /// or after `now` minus the maximum packet airtime. Call opportunistically.
  void prune(Time now);

  /// Live packets in arrival order, for engine checkpoints.
  [[nodiscard]] std::span<const AirPacket> live() const {
    return {packets_.data() + head_, packets_.size() - head_};
  }

  /// Checkpoint restore: re-seeds the tracker with the checkpointed live
  /// set, in arrival order (head_ resets to 0; survives() folds energy over
  /// live entries only, so the compaction offset is invisible to results).
  void restore_live(std::span<const AirPacket> packets) {
    packets_.assign(packets.begin(), packets.end());
    head_ = 0;
  }

 private:
  // Packets ordered by start time (arrival order); live entries are
  // [head_, size()). prune() advances head_ and compacts occasionally so
  // the vector keeps its capacity — steady-state add() never allocates
  // (a deque would churn its backing blocks as receptions drain).
  std::vector<AirPacket> packets_;
  std::size_t head_{0};
};

}  // namespace blam
