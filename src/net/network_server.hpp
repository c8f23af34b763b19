// Network server: application-level endpoint behind the gateway(s).
//
// Responsibilities (paper Sec. III-B): aggregate copies of each uplink
// heard by multiple gateways and choose the strongest as the downlink path,
// deduplicate uplinks (retransmissions share a sequence number), feed
// reported SoC transition points into the DegradationService, recompute
// every node's normalized degradation w_u once per dissemination period,
// and answer "what w_u / ADR command should this ACK carry?".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "core/degradation_service.hpp"
#include "core/theta_controller.hpp"
#include "fault/report_channel.hpp"
#include "lora/interference.hpp"
#include "mac/adr.hpp"
#include "mac/frame.hpp"
#include "net/metrics.hpp"
#include "sim/simulator.hpp"

namespace blam {

class Auditor;
class Gateway;
class Node;
class StateReader;
class StateWriter;

class NetworkServer {
 public:
  /// The degradation service assumes every battery sits at
  /// kInsulatedBatteryC, the paper's insulated setting.
  NetworkServer(Simulator& sim, const DegradationModel& model, Time dissemination_period);

  /// Enables server-side ADR at AdrController::Config's defaults for the
  /// slice nodes `node_ids` (ascending; disabled unless called).
  void enable_adr(std::vector<std::uint32_t> node_ids);

  /// Enables the adaptive-theta network manager (disabled unless called).
  void enable_adaptive_theta(const ThetaController::Config& config);

  /// Attaches the metrics sink (duplicate counting).
  void attach_metrics(Metrics& metrics) { metrics_ = &metrics; }

  /// Attaches the fault plan: w_u recomputes are skipped while the backhaul
  /// is in an outage window (the dissemination never reaches the gateway),
  /// and with report faults enabled every piggy-backed SoC report is routed
  /// through a ReportFaultChannel before reaching the ledger.
  void attach_fault_plan(const FaultPlan* faults);

  /// Ground-truth probe for the feedback-consistency audit: returns the
  /// node's own tracker degradation at `at`. Checked at each recompute, and
  /// only on fault-free runs (under injected report faults the ledger is
  /// EXPECTED to diverge). Network sets none for outdoor batteries.
  using TruthProbe = std::function<double(std::uint32_t node_id, Time at)>;
  void set_truth_probe(TruthProbe probe) { truth_probe_ = std::move(probe); }

  /// Attaches the invariant auditor (nullptr = disabled): every accepted
  /// uplink is checked for strict per-node sequence monotonicity.
  void attach_auditor(Auditor* auditor) { audit_ = auditor; }

  /// Registers nodes with the ledger (and lays out their report-fault lane
  /// slots when report faults are on), sizing both once for them. Pass ids
  /// in ascending order.
  void register_nodes(std::span<const std::uint32_t> node_ids);

  /// A gateway decoded one copy of an uplink. Copies of the same frame from
  /// several gateways end simultaneously; the server collects them for a
  /// millisecond, then processes the frame once and ACKs through the
  /// gateway that heard it best.
  void on_gateway_receive(Gateway& gateway, Node& node, const UplinkFrame& frame,
                          const AirPacket& packet);

  /// Handles a decoded uplink (dedup + SoC ingestion). Returns false if
  /// this (node, seq) was already delivered. Exposed for tests; the normal
  /// path goes through on_gateway_receive.
  bool on_uplink(const UplinkFrame& frame);

  /// Latest normalized degradation for the node (0 before any recompute).
  [[nodiscard]] double w_for(std::uint32_t node_id) const;

  /// Records a decoded uplink's SNR (no-op with ADR disabled).
  void observe_snr(std::uint32_t node_id, double snr_db);

  /// ADR advice for the node given its current parameters; nullopt when ADR
  /// is disabled, history is short, or nothing would change.
  [[nodiscard]] std::optional<AdrCommand> adr_advice(std::uint32_t node_id,
                                                     const AdrCommand& current) const;

  /// Whether at least one recompute has run (ACKs carry w_u only then).
  [[nodiscard]] bool dissemination_ready() const { return recomputes_ > 0; }

  [[nodiscard]] const DegradationService& service() const { return service_; }
  [[nodiscard]] DegradationService& service() { return service_; }

  /// Releases any report the fault channel still holds for reordering into
  /// the ledger (call once at end of run, before reading final metrics).
  void flush_report_channel();

  /// What the report fault channel did; nullptr when report faults are off.
  [[nodiscard]] const ReportChannelCounters* report_channel_counters() const {
    return report_faults_.has_value() ? &report_faults_->counters() : nullptr;
  }

  /// Serializes the server — dedup table, dissemination loop, theta/report
  /// channels and every aggregating frame — into an engine checkpoint (see
  /// sim/checkpoint.hpp), followed by the degradation ledger's own `ledger`
  /// section. Non-const: the ledger's checkpoint drains its staged ingest
  /// queue first.
  void checkpoint_state(StateWriter& w);

  /// Restores state captured by checkpoint_state into a freshly built server
  /// whose event queue has been cleared. `gateways` is the slice's gateway
  /// vector (frames store the downlink gateway as an index into it);
  /// `node_by_id` resolves GLOBAL node ids to this slice's Node instances.
  void restore_state(StateReader& r, const std::vector<std::unique_ptr<Gateway>>& gateways,
                     const std::function<Node*(std::uint32_t)>& node_by_id);

 private:
  /// Copies of one uplink collected across gateways for 1 ms. Instances
  /// live in a recycled slot pool: the decide() callback captures only
  /// {this, slot} and the frame's SoC-report vector keeps its capacity
  /// across uplinks, so the steady-state aggregation path never allocates.
  struct PendingFrame {
    Gateway* gateway{nullptr};
    Node* node{nullptr};
    UplinkFrame frame;
    double best_rx_dbm{0.0};
    Time uplink_end{};
    SpreadingFactor sf{SpreadingFactor::kSF10};
    int channel{0};
    bool live{false};
    /// The decide() event; checkpointed with the frame so a restored run
    /// resolves the aggregation at the original instant and seq.
    EventHandle decide_event{};
  };

  void recompute();
  void decide(std::uint32_t slot);
  [[nodiscard]] std::uint32_t acquire_pending_slot();

  [[nodiscard]] static std::uint64_t frame_key(const UplinkFrame& frame) {
    return (static_cast<std::uint64_t>(frame.node_id) << 40) |
           (static_cast<std::uint64_t>(frame.attempt & 0xff) << 32) |
           static_cast<std::uint64_t>(frame.seq);
  }

  Simulator& sim_;
  DegradationService service_;
  std::optional<AdrController> adr_;
  std::optional<ThetaController> theta_;
  // blam-ckpt: skip -- wiring; checkpointed metrics ride in the gateway-metrics section
  Metrics* metrics_{nullptr};
  // blam-ckpt: skip -- wiring; fault-plan state rides in the engine slice's faults section
  const FaultPlan* faults_{nullptr};
  // blam-ckpt: skip -- wiring, re-attached at construction; Network checkpoints the auditor
  Auditor* audit_{nullptr};
  /// Fault channel between PHY and ledger (engaged only when the plan has
  /// report faults; absent otherwise so fault-free runs take the direct
  /// ingest path with zero extra draws).
  std::optional<ReportFaultChannel> report_faults_;
  /// Reused sink closure: deliver() may fan one report out to several
  /// ingest_report calls (duplication, reorder release).
  // blam-ckpt: skip -- reused closure, re-bound at construction
  ReportFaultChannel::Sink ingest_sink_;
  // blam-ckpt: skip -- test-only probe wiring, re-attached by the test after restore
  TruthProbe truth_probe_;
  /// Highest seq delivered per node, indexed by node id (-1 = none yet).
  /// Node ids are dense in every scenario, so a flat vector replaces the
  /// hash lookup that sat on the per-delivery path.
  std::vector<std::int64_t> last_seq_;
  std::vector<PendingFrame> pending_pool_;
  // blam-ckpt: skip -- free-list; restore_state rebuilds it while re-acquiring pending slots
  std::vector<std::uint32_t> pending_free_;
  /// (frame key, pool slot) for frames currently aggregating; at most a
  /// handful are in flight at once, so lookup is a linear scan.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> pending_live_;
  std::unique_ptr<PeriodicProcess> recompute_process_;
  std::uint64_t recomputes_{0};
  /// Thermal noise floor at the 125 kHz uplink bandwidth (constant per run,
  /// previously recomputed — log10 and all — for every delivered frame).
  // blam-ckpt: skip -- physical constant, recomputed at construction
  double noise_floor_125k_dbm_;
};

}  // namespace blam
