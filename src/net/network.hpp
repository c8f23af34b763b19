// Network: composes the simulator, solar trace, gateways, network server
// and nodes of one engine slice, runs the simulation, and exposes the
// metrics the figures need. ShardedNetwork (sim/shard_engine.hpp), the
// engine everything else drives, builds each of its slices through the
// slice constructor.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "audit/audit.hpp"
#include "common/rng.hpp"
#include "energy/solar.hpp"
#include "energy/thermal.hpp"
#include "fault/fault_plan.hpp"
#include "lora/channel_plan.hpp"
#include "net/deployment_plan.hpp"
#include "net/gateway.hpp"
#include "net/metrics.hpp"
#include "net/network_server.hpp"
#include "net/node.hpp"
#include "net/scenario.hpp"
#include "sim/simulator.hpp"

namespace blam {

/// The part of a deployment one Network builds: ascending global ids of
/// its gateways and nodes, and the fleet's row table its nodes write.
struct NetworkSlice {
  std::vector<int> gateways;
  std::vector<std::uint32_t> nodes;
  /// Node `id` writes fleet->node(id); null makes the Network its own fleet.
  Metrics* fleet{nullptr};
};

class Network {
 public:
  /// The whole fleet as one slice, its own fleet: only for perfbench's
  /// traced serial runs and the bit-identity reference tests.
  explicit Network(const ScenarioConfig& config);

  /// The one build path: the `slice` share of an already planned
  /// `deployment`. A null `trace` is built from the deployment. Node and
  /// gateway ids stay global (fleet rows, RNG forks and fault streams are
  /// keyed by them); local indices follow the slice's ascending order.
  /// `combiner` (may be null) folds the local D_max into the fleet max at
  /// each w_u recompute.
  Network(const ScenarioConfig& config, const DeploymentPlan& deployment,
          std::shared_ptr<const SolarTrace> trace, FleetMaxCombiner* combiner,
          const NetworkSlice& slice);

  /// Advances the simulation to `until` (absolute simulation time).
  void run_until(Time until);

  /// Ground-truth maximum degradation across nodes right now.
  [[nodiscard]] double max_degradation() const;

  /// Copies per-node degradation ground truth into the nodes' rows and
  /// snapshots the ledger and report-channel counters.
  void finalize_metrics();

  [[nodiscard]] const Simulator& simulator() const { return sim_; }
  /// Gateway counters and summary fields, plus every node row if its own fleet.
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  /// Node `id` (global); std::runtime_error if it is not in this slice.
  [[nodiscard]] const Node& node(std::uint32_t id) const { return node_by_id(id); }
  [[nodiscard]] const NetworkServer& server() const { return *server_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Gateway>>& gateways() const {
    return gateways_;
  }
  /// Non-null only when at least one fault source is configured.
  [[nodiscard]] const FaultPlan* fault_plan() const { return faults_.get(); }
  /// This slice's auditor; non-null exactly when BLAM_AUDIT=1.
  [[nodiscard]] const Auditor* auditor() const { return audit_.get(); }

  /// Serializes the slice (clock, server, gateways, gateway counters,
  /// nodes, fault channels, then the auditor when there is one) at a
  /// quiescent instant — call only between run_until calls.
  void checkpoint_state(StateWriter& w);

  /// Restores a checkpoint written by checkpoint_state into this freshly
  /// built slice (same ScenarioConfig and selection, not yet run): wipes
  /// the construction schedule, replays component state and pending
  /// events, then restores the clock. A stream whose auditing (on/off)
  /// differs from this slice's is refused by name.
  void restore_state(StateReader& r);

 private:
  /// The whole fleet of a freshly planned deployment as one slice.
  Network(const ScenarioConfig& config, const DeploymentPlan& deployment);

  /// node(id) for the slice's own writers.
  [[nodiscard]] Node& node_by_id(std::uint32_t id) const;

  // blam-ckpt: skip -- construction input; restore_state requires a network freshly built from the same ScenarioConfig
  ScenarioConfig config_;
  Simulator sim_;
  // blam-ckpt: skip -- immutable channel counts from ScenarioConfig, rebuilt at construction
  ChannelPlan plan_;
  // blam-ckpt: skip -- pure function of ScenarioConfig::degradation, rebuilt at construction
  DegradationModel model_;
  // blam-ckpt: skip -- pure function of the scenario thermal config, rebuilt at construction
  std::unique_ptr<TemperatureModel> thermal_;
  Metrics metrics_;
  // blam-ckpt: skip -- its values are fixed by (seed, solar config); regenerated from them or shared across runs
  std::shared_ptr<const SolarTrace> trace_;
  // blam-ckpt: skip -- pure function of the scenario, rebuilt at construction
  std::unique_ptr<UtilityFunction> utility_;
  std::unique_ptr<NetworkServer> server_;
  std::unique_ptr<Auditor> audit_;
  std::unique_ptr<FaultPlan> faults_;
  std::vector<std::unique_ptr<Gateway>> gateways_;
  // blam-ckpt: skip -- pure function of the scenario; each node checkpoints its own theta
  std::unique_ptr<MacPolicy> policy_;
  // blam-ckpt: skip -- wiring, scratch and memo shared by this slice's nodes, rebuilt at construction
  Node::Shared node_shared_;
  // blam-ckpt: skip -- deployment output; plan_deployment replays deterministically from the scenario seed
  std::vector<Node::Link> node_links_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // blam-ckpt: skip -- deployment output; plan_deployment replays deterministically from the scenario seed
  Energy worst_attempt_energy_{};
};

}  // namespace blam
