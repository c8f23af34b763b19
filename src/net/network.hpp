// Network: composes the simulator, solar trace, gateways, network server
// and nodes of one engine slice, runs the simulation, and exposes the
// metrics the figures need. ShardedNetwork (sim/shard_engine.hpp), the
// engine everything else drives, builds each of its slices through the
// slice constructor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <utility>
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

/// A slice's Nodes in one allocation, sized when the slice is built. Each
/// Node is constructed in place after the last; the block destroys the ones
/// built, in reverse order, when it dies, so a Node constructor that throws
/// part-way through a build leaves exactly the nodes before it to destroy.
/// A Node never moves (its events hold `this`), so the block never grows:
/// emplace_back may be called at most `capacity` times.
///
/// A block of at least one 2 MB huge page is aligned to 2 MB and advises
/// MADV_HUGEPAGE on its whole huge pages, which the build touches in full:
/// one fault then maps 2 MB where 4 KB pages took 512 (DESIGN.md §9,
/// "Set-up"). The advice is withdrawn before the memory goes back to the
/// allocator. It is a hint: where the kernel refuses or ignores it, the
/// block works the same on small pages. A smaller block keeps alignof(Node).
class NodeBlock {
 public:
  explicit NodeBlock(std::size_t capacity);
  NodeBlock(const NodeBlock&) = delete;
  NodeBlock& operator=(const NodeBlock&) = delete;
  ~NodeBlock();

  /// Builds the next Node in place.
  template <typename... Args>
  Node& emplace_back(Args&&... args) {
    Node& node = *std::construct_at(nodes_ + size_, std::forward<Args>(args)...);
    ++size_;
    return node;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] Node* begin() const { return nodes_; }
  [[nodiscard]] Node* end() const { return nodes_ + size_; }

 private:
  /// Bytes from the block's start in whole huge pages (0 if under one).
  // blam-ckpt: skip -- fixed by the slice's node count when the block is built
  std::size_t huge_bytes_;
  Node* nodes_;
  std::size_t size_{0};
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
  /// The slice's nodes, adjacent in one block, in ascending global id.
  [[nodiscard]] std::span<const Node> nodes() const { return {nodes_.begin(), nodes_.size()}; }
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
  NodeBlock nodes_;
  // blam-ckpt: skip -- deployment output; plan_deployment replays deterministically from the scenario seed
  Energy worst_attempt_energy_{};
};

}  // namespace blam
