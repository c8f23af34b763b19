// Metrics collection, matching the quantities the paper reports in
// Sec. IV-A.2: avg retransmissions per packet, total TX energy, battery
// degradation, packet reception rate, avg utility per packet, and avg
// latency (with failed packets penalized by one sampling period).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "core/degradation_service.hpp"

namespace blam {

class StateReader;
class StateWriter;

struct NodeMetrics {
  std::uint64_t generated{0};
  /// Packets whose ACK arrived.
  std::uint64_t delivered{0};
  /// Packets that exhausted all transmissions without an ACK.
  std::uint64_t exhausted{0};
  /// Packets dropped by the policy (Algorithm 1 FAIL).
  std::uint64_t policy_drops{0};
  /// Packets abandoned because the battery + harvest could not fund a
  /// transmission at the scheduled time.
  std::uint64_t brownouts{0};
  /// Always 0: nothing defers an attempt.
  // blam-ckpt: skip -- always 0; kept only because perfbench's fleet digest reads it
  std::uint64_t duty_defers{0};
  /// Transmissions on air (first attempts + retransmissions).
  std::uint64_t tx_attempts{0};
  /// Retransmissions only.
  std::uint64_t retx{0};
  /// Radio TX energy across the run (paper Fig. 5b).
  Energy tx_energy{};
  /// Sum of per-packet utility over *generated* packets (failures count 0).
  double utility_sum{0.0};
  /// Per-packet latency in seconds; failures penalized with the period
  /// (the paper's metric).
  RunningStats latency_s;
  /// Latency of delivered packets only (generation to ACK reception).
  RunningStats delivered_latency_s;
  /// counts[w] = packets whose chosen forecast window was w.
  std::vector<std::uint32_t> window_counts;

  // Fault-injection observability (all zero without a FaultPlan):
  /// Crash/reboot events injected into this node.
  std::uint64_t crashes{0};
  /// Packets generated while the node was rebooting (never transmitted).
  std::uint64_t reboot_drops{0};
  /// Packets that exhausted their budget while the gateway was in an
  /// outage window (subset of `exhausted`).
  std::uint64_t lost_in_outage{0};
  /// Time from a gateway outage's end to this node's next delivered packet
  /// (seconds, one sample per outage the node noticed).
  RunningStats recovery_s;
  /// Age of the node's w_u at each BLAM window selection (seconds):
  /// the feedback-staleness distribution.
  RunningStats w_age_s;

  // Filled in by the network when a report is taken:
  double degradation{0.0};
  double cycle_linear{0.0};
  double calendar_linear{0.0};
  double mean_soc{0.0};
  double final_soc{0.0};

  [[nodiscard]] double prr() const {
    return generated > 0 ? static_cast<double>(delivered) / static_cast<double>(generated) : 0.0;
  }
  [[nodiscard]] double avg_utility() const {
    return generated > 0 ? utility_sum / static_cast<double>(generated) : 0.0;
  }
  /// Retransmissions per generated packet (paper Fig. 5a's "Avg RETX").
  [[nodiscard]] double avg_retx() const {
    return generated > 0 ? static_cast<double>(retx) / static_cast<double>(generated) : 0.0;
  }
  /// Forecast window this node used for the majority of its packets
  /// (paper Fig. 4); -1 if it never transmitted.
  [[nodiscard]] int majority_window() const;

  void count_window(int window);
};

struct GatewayMetrics {
  std::uint64_t arrivals{0};
  std::uint64_t received{0};
  std::uint64_t lost_interference{0};
  std::uint64_t lost_half_duplex{0};
  std::uint64_t lost_no_demod_path{0};
  std::uint64_t lost_under_sensitivity{0};
  std::uint64_t acks_sent{0};
  std::uint64_t acks_rx2{0};
  std::uint64_t acks_unschedulable{0};
  std::uint64_t acks_undecodable{0};
  /// Duplicate application packets (retransmission decoded after the
  /// original already made it through — its ACK was lost). Subset of
  /// `received`; duplicates are re-acknowledged.
  std::uint64_t duplicates{0};
  /// Uplinks arriving while the gateway was in a fault-injected outage.
  std::uint64_t lost_outage{0};
  /// ACKs suppressed because the gateway was in an outage at send time.
  std::uint64_t acks_lost_outage{0};
  /// ACKs transmitted but lost to the Gilbert-Elliott downlink channel.
  std::uint64_t acks_lost_channel{0};
  /// w_u recomputes skipped because the backhaul was down at the
  /// dissemination instant.
  std::uint64_t recomputes_skipped{0};

  // SoC-report fault channel observability (all zero without report
  // faults); what the channel DID, as opposed to the LedgerCounters'
  // record of what the ledger detected.
  std::uint64_t reports_dropped_fault{0};
  std::uint64_t reports_duplicated_fault{0};
  std::uint64_t reports_reordered_fault{0};
  std::uint64_t reports_corrupted_fault{0};
  std::uint64_t reports_truncated_fault{0};

  /// Every counter in row order: the codec rows and the engine's sum over
  /// slices walk this one list.
  [[nodiscard]] constexpr auto fields() const {
    return std::array{&GatewayMetrics::arrivals, &GatewayMetrics::received,
                      &GatewayMetrics::lost_interference, &GatewayMetrics::lost_half_duplex,
                      &GatewayMetrics::lost_no_demod_path, &GatewayMetrics::lost_under_sensitivity,
                      &GatewayMetrics::acks_sent, &GatewayMetrics::acks_rx2,
                      &GatewayMetrics::acks_unschedulable, &GatewayMetrics::acks_undecodable,
                      &GatewayMetrics::duplicates, &GatewayMetrics::lost_outage,
                      &GatewayMetrics::acks_lost_outage, &GatewayMetrics::acks_lost_channel,
                      &GatewayMetrics::recomputes_skipped, &GatewayMetrics::reports_dropped_fault,
                      &GatewayMetrics::reports_duplicated_fault,
                      &GatewayMetrics::reports_reordered_fault,
                      &GatewayMetrics::reports_corrupted_fault,
                      &GatewayMetrics::reports_truncated_fault};
  }
};

/// State-codec rows for the metric structs. The engine checkpoint and the
/// ExperimentResult codec (net/experiment.hpp) write the same tokens through
/// them; a damaged row is a named std::runtime_error.
///
/// What a node accumulates while it runs: every NodeMetrics field but the
/// five battery ones below. window_counts travels as a sparse row whose
/// width the reader takes from the row's current size.
void write_node_metrics(StateWriter& w, const NodeMetrics& m);
void read_node_metrics(StateReader& r, NodeMetrics& m);
/// The battery fields the network fills in when a report is taken.
void write_node_battery(StateWriter& w, const NodeMetrics& m);
void read_node_battery(StateReader& r, NodeMetrics& m);
void write_gateway_metrics(StateWriter& w, const GatewayMetrics& m);
void read_gateway_metrics(StateReader& r, GatewayMetrics& m);

/// Aggregated view over all nodes, used to print figure rows.
struct NetworkSummary {
  double mean_prr{0.0};
  double min_prr{0.0};
  double mean_utility{0.0};
  double mean_latency_s{0.0};
  double max_latency_s{0.0};
  double mean_delivered_latency_s{0.0};
  double max_delivered_latency_s{0.0};
  double mean_retx{0.0};
  Energy total_tx_energy{};
  BoxSummary degradation_box{};
  BoxSummary prr_box{};
  BoxSummary utility_box{};
  BoxSummary latency_box{};
  double max_degradation{0.0};

  // Fault-injection recovery observability (zero without a FaultPlan):
  double total_outage_s{0.0};
  std::uint64_t lost_in_outage{0};
  std::uint64_t crashes{0};
  double mean_recovery_s{0.0};
  double max_recovery_s{0.0};
  double mean_w_age_s{0.0};
  double max_w_age_s{0.0};

  /// Gateway feedback-ledger ingest decisions (all zero on a clean run).
  LedgerCounters feedback{};

  /// Why a run requesting shards > 1 ran as one whole-fleet slice
  /// (empty when it actually sharded or never asked to).
  std::string serial_reason;
};

class Metrics {
 public:
  explicit Metrics(std::size_t n_nodes);
  explicit Metrics(std::vector<NodeMetrics> nodes) : nodes_{std::move(nodes)} {}

  [[nodiscard]] NodeMetrics& node(std::size_t id) { return nodes_.at(id); }
  [[nodiscard]] const NodeMetrics& node(std::size_t id) const { return nodes_.at(id); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  /// Moves the node rows out, leaving this table empty.
  [[nodiscard]] std::vector<NodeMetrics> release_nodes() && { return std::move(nodes_); }
  [[nodiscard]] GatewayMetrics& gateway() { return gateway_; }
  [[nodiscard]] const GatewayMetrics& gateway() const { return gateway_; }

  [[nodiscard]] NetworkSummary summarize() const;

  /// Total gateway-outage duration over the run (copied into the summary);
  /// set by Network::finalize_metrics when a FaultPlan is active.
  void set_total_outage(double seconds) { total_outage_s_ = seconds; }

  /// Snapshot of the gateway ledger's ingest counters (copied into the
  /// summary); set by Network::finalize_metrics.
  void set_feedback(const LedgerCounters& counters) { feedback_ = counters; }

  /// Records why a shards > 1 request degraded to one slice; copied
  /// into the summary so callers see the fallback without consulting the
  /// ShardPlan. Set by ShardedNetwork at construction.
  void set_serial_reason(std::string reason) { serial_reason_ = std::move(reason); }
  [[nodiscard]] const std::string& serial_reason() const { return serial_reason_; }

  /// Histogram over majority-selected forecast windows (paper Fig. 4):
  /// result[w] = number of nodes whose majority window is w.
  [[nodiscard]] std::vector<int> majority_window_histogram(int n_windows) const;

 private:
  std::vector<NodeMetrics> nodes_;
  GatewayMetrics gateway_;
  // blam-ckpt: skip -- finalize-time summary, recomputed by finalize_metrics() from live state
  double total_outage_s_{0.0};
  // blam-ckpt: skip -- finalize-time summary, recomputed by finalize_metrics() from the ledger
  LedgerCounters feedback_;
  // blam-ckpt: skip -- finalize-time annotation, re-stamped by the owning engine
  std::string serial_reason_;
};

}  // namespace blam
