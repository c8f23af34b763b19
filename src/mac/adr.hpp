// LoRaWAN Adaptive Data Rate (ADR), network-server side.
//
// The paper's MAC runs on top of standard LoRaWAN parameter control ("the
// nodes can change their transmission parameters dynamically as governed by
// the underlying MAC layer or the network server", Sec. III-B) — its EWMA
// energy estimate (Eq. 13) exists precisely because ADR changes the cost of
// a transmission over time. This implements the standard server-side ADR:
// keep the SNR of the last N uplinks, compute the margin over the SF's
// demodulation floor, and convert every 3 dB of spare margin into one step
// of data rate (SF down) and then TX power (down to the minimum). A weak
// link climbs back up to kDeviceTxPowerDbm and never above it, so ADR never
// lifts an uplink over the audibility floor the shard planner cut at.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "lora/params.hpp"

namespace blam {

/// SNR demodulation floor (dB) for each SF at 125 kHz, per the LoRaWAN
/// specification / SX1301 datasheet.
[[nodiscard]] double required_snr_db(SpreadingFactor sf);

/// Thermal-noise floor (dBm) of a receiver: -174 + 10 log10(BW) + NF.
[[nodiscard]] double noise_floor_dbm(double bandwidth_hz, double noise_figure_db = 6.0);

/// A parameter adjustment the server piggybacks on an ACK (LinkADRReq).
struct AdrCommand {
  SpreadingFactor sf{SpreadingFactor::kSF10};
  double tx_power_dbm{kDeviceTxPowerDbm};
};

class AdrController {
 public:
  struct Config {
    /// Uplinks remembered per node.
    int history{20};
    /// Safety margin (dB) on top of the demodulation floor.
    double device_margin_db{10.0};
    /// Lowest TX power (dBm); steps of 2 dB like US-915, up to at most
    /// kDeviceTxPowerDbm.
    double min_tx_power_dbm{2.0};
    /// Fewest uplinks before the first adjustment.
    int min_history{10};
  };

  /// Keeps the histories of the engine slice whose nodes have the
  /// ascending, unique ids `node_ids`.
  AdrController(const Config& config, std::vector<std::uint32_t> node_ids);

  /// Records a decoded uplink's SNR for `node_id` (std::out_of_range for a
  /// node outside the slice).
  void observe(std::uint32_t node_id, double snr_db);

  /// Computes the adjusted parameters for the node, or nullopt when history
  /// is too short (or the node is not in the slice) or nothing would
  /// change. `current` is what the node uses now; the result never
  /// increases SF and never raises power above kDeviceTxPowerDbm.
  [[nodiscard]] std::optional<AdrCommand> advise(std::uint32_t node_id,
                                                 const AdrCommand& current) const;

  [[nodiscard]] const Config& config() const { return config_; }

  /// One node's SNR history, for "blamsim" engine checkpoints.
  struct NodeSnapshot {
    std::uint32_t node_id{0};
    std::vector<double> snr_db;  // oldest first
  };

  /// Snapshots the history of every node that has one, in ascending id.
  [[nodiscard]] std::vector<NodeSnapshot> snapshot() const;

  /// Replaces all history with the snapshot's (restore is a rebuild: the
  /// controller was freshly constructed from the same scenario config). A
  /// node outside the slice or a history longer than Config::history
  /// throws std::runtime_error.
  void restore(const std::vector<NodeSnapshot>& nodes);

 private:
  /// `node_id`'s index in node_ids_, or nullopt.
  [[nodiscard]] std::optional<std::size_t> slot_of(std::uint32_t node_id) const;

  // blam-ckpt: skip -- construction input; enable_adr() rebuilds it at its defaults
  Config config_;
  // blam-ckpt: skip -- the slice's node ids, rebuilt at construction
  std::vector<std::uint32_t> node_ids_;
  /// config_.history SNR values per node, node after node; a node's first
  /// held_ values are its history, oldest first.
  std::vector<double> snr_db_;
  std::vector<int> held_;
};

}  // namespace blam
