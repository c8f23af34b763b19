// Conservative time-windowed parallel engine, and the only engine: a run is
// N >= 1 Network slices (net/network.hpp), each owning a private Simulator
// + EventQueue, advancing in lockstep epochs of one dissemination period
// and meeting at a barrier after every epoch. The slices run through
// fork_join (sim/sweep_runner.hpp): slice 0 on the calling thread and
// slices 1..N-1 each on its own thread, so a one-slice run — every run the
// planner cannot split — starts no thread.
//
// Why collision domains and not arbitrary geographic cells: the interference
// tracker couples every transmission a gateway can hear at TX START time, so
// two gateways that share even one audible node have zero lookahead between
// them — no conservative window can split them without changing results. The
// planner therefore folds gateways into domains (union-find over "some node
// reaches both above the audibility floor") and only parallelizes across
// domains, where the cross-slice lookahead is infinite for PHY traffic. The
// one remaining coupling is the daily w_u dissemination: every slice's
// DegradationService normalizes by the FLEET-wide D_max, reduced across
// slices at the epoch barrier (FleetMaxCombiner hook).
//
// Invariant (CI-enforced): any shard count yields committed results
// bit-identical to a whole-fleet Network — per-domain event order is a
// projection of the whole-fleet order, node RNG streams are pure per-node
// forks, and the D_max all-reduce reproduces the fleet max.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "audit/audit.hpp"
#include "common/units.hpp"
#include "net/deployment_plan.hpp"
#include "net/network.hpp"

namespace blam {

/// BLAM_SHARDS environment override of ScenarioConfig::shards (>= 0; other
/// values, like non-numeric text, are ignored).
[[nodiscard]] int resolve_shards(int configured);

/// The shard planner's verdict for one deployment.
struct ShardPlan {
  int requested{1};
  /// Slice count actually used (min(requested, domains); 1 when serial).
  int effective{1};
  /// True when the deployment runs as one whole-fleet slice.
  bool serial{true};
  /// Human-readable reason for the one-slice run (empty when sharded).
  std::string serial_reason;
  /// Collision domains found (0 when planning was skipped).
  int domains{0};
  std::vector<int> domain_of_gateway;
  /// Slice of every gateway / node (all 0 for a one-slice run).
  std::vector<int> shard_of_gateway;
  std::vector<int> shard_of_node;

  /// The gateways and nodes slice `shard` owns.
  [[nodiscard]] NetworkSlice slice(int shard) const;
};

/// Plans the shard decomposition. It only picks a slice count: one slice
/// when requested <= 1 or the deployment is a single collision domain.
/// Every feature splits. Audit: each slice's auditor checks its own nodes
/// and its own event queue. ADR: it never raises a node above
/// kDeviceTxPowerDbm, the power the domains are cut at, and its SNR
/// history is per node. Fault injection: every slice rebuilds the full
/// FaultPlan from the same 0xfa17 fork, and each stream is keyed by the
/// global gateway or node id, so a replica regenerates exactly the
/// whole-fleet draws.
[[nodiscard]] ShardPlan plan_shards(const ScenarioConfig& config,
                                    const DeploymentPlan& deployment, int requested);

/// Thrown inside peer shards when one shard fails: the barrier is poisoned,
/// every blocked or arriving worker unwinds with this at its next
/// collective call, and the original exception is rethrown from the
/// lowest-index failed shard.
class ShardAborted : public std::exception {
 public:
  [[nodiscard]] const char* what() const noexcept override {
    return "shard aborted: a peer shard failed";
  }
};

/// Rendezvous point for the epoch loop. Every shard performs the identical
/// sequence of collective calls (reduce_max inside each dissemination tick,
/// sync at each epoch end), so one generation counter serializes them all.
/// Exposed for the tsan test.
class ShardBarrier {
 public:
  explicit ShardBarrier(int parties);

  /// Collective max-reduction: blocks until all parties contribute, returns
  /// the maximum. Throws ShardAborted once poisoned.
  [[nodiscard]] double reduce_max(double value);

  /// Collective barrier with no payload. Throws ShardAborted once poisoned.
  void sync();

  /// Wakes every waiter and makes all current and future collective calls
  /// throw ShardAborted. Idempotent.
  void poison();

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int parties_;
  int arrived_{0};
  std::uint64_t generation_{0};
  double folding_max_{0.0};
  double result_{0.0};
  bool poisoned_{false};
};

/// The simulation engine: N >= 1 Network slices planned by plan_shards().
/// Results are bit-identical at every shard count; the public surface is
/// what experiment.cpp and the figure binaries consume.
class ShardedNetwork {
 public:
  explicit ShardedNetwork(const ScenarioConfig& config);
  ShardedNetwork(const ScenarioConfig& config, std::shared_ptr<const SolarTrace> trace);
  ~ShardedNetwork();

  ShardedNetwork(const ShardedNetwork&) = delete;
  ShardedNetwork& operator=(const ShardedNetwork&) = delete;

  /// Advances every slice to `until` in lockstep epochs. Safe to call
  /// repeatedly with increasing targets: run_until_eol's steps and the
  /// rolling checkpoint's slices replay the identical epoch sequence.
  void run_until(Time until);

  /// Ground-truth maximum degradation across all slices' nodes.
  [[nodiscard]] double max_degradation() const;

  /// Finalizes every slice (each node writes its battery fields into its
  /// row), then fills the fleet's gateway counters: the slices' sums plus
  /// the exact compensation for uplink copies foreign slices never saw
  /// (each would have arrived under the audibility floor: arrivals and
  /// lost_under_sensitivity grow by tx_attempts x missing-gateway-count).
  void finalize_metrics();

  /// The fleet's one row table, by global node id. Rows are live; their battery
  /// fields, gateway/ledger counters and outage total fill in finalize_metrics().
  [[nodiscard]] const Metrics& metrics() const;
  /// Moves the fleet's table out of an engine the caller is done with
  /// (after finalize_metrics()); the slices' nodes still point into the
  /// moved rows, so the engine may only be destroyed afterwards.
  [[nodiscard]] Metrics release_metrics() &&;
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] const ShardPlan& plan() const { return plan_; }
  [[nodiscard]] bool serial() const { return plan_.serial; }
  /// Slice `index` (0 <= index < plan().effective), for inspection between
  /// run_until calls; the engine owns and drives it.
  [[nodiscard]] Network& slice(int index) { return *slices_.at(static_cast<std::size_t>(index)); }
  /// Every slice's auditor merged into one report; nullopt exactly when
  /// auditing is off (BLAM_AUDIT unset or 0).
  [[nodiscard]] std::optional<AuditReport> audit_report() const;
  [[nodiscard]] std::uint64_t events_executed() const;
  /// Latest disseminated w_u for a node (fleet-normalized; 0 before the
  /// first recompute). Throws std::out_of_range for ids >= n_nodes.
  [[nodiscard]] double w_for(std::uint32_t node_id) const;
  /// Per-slice busy time (CPU seconds) accumulated across run_until calls;
  /// the maximum over slices is the critical path, the scalability metric
  /// the throughput bench reports on core-starved hosts.
  [[nodiscard]] double max_shard_busy_seconds() const;

  /// Serializes the full engine ("blamsim v4" stream: a meta section ending
  /// in an offset table of per-slice byte lengths, then every slice's
  /// Network::checkpoint_state, in slice order) at the current cursor.
  /// Slices serialize in parallel into their own buffers, slice 0 on the
  /// calling thread; the stream is byte-identical to writing them one
  /// after another. Call only between run_until calls. A slice's failure
  /// is rethrown here (lowest slice first) once every worker has joined.
  void checkpoint(std::ostream& out);

  /// Restores a checkpoint written by checkpoint() into this freshly built
  /// engine (same ScenarioConfig, not yet run). Subsequent run_until calls
  /// continue bit-identically to the uninterrupted run. The stream is read
  /// into one buffer and every slice parses its own byte range in
  /// parallel, slice 0 on the calling thread. A stream from another format
  /// version or scenario, or a damaged one, throws a named
  /// std::runtime_error (the lowest failed slice's, after every worker
  /// has joined). A failed restore may leave some slices restored and
  /// others fresh, so from then on run_until, checkpoint,
  /// finalize_metrics and restore throw std::logic_error.
  void restore(std::istream& in);

  /// checkpoint() to `path` atomically (tmp + rename), so a crash mid-write
  /// never corrupts the last good checkpoint.
  void checkpoint_to_file(const std::string& path);

 private:
  class FleetReducer;

  /// Runs slice `index` through the epoch loop from `start` to `until`.
  /// The first failure poisons the barrier and propagates; a peer's
  /// ShardAborted is swallowed.
  void run_slice(std::size_t index, Time start, Time until);
  /// BLAM_CHECKPOINT_DIR/blamsim.ckpt — the rolling checkpoint file.
  [[nodiscard]] std::string checkpoint_file_path() const;
  /// restore()'s work, over the whole stream read into memory.
  void restore_bytes(std::string_view bytes);
  /// Throws std::logic_error once a restore() has failed.
  void refuse_after_failed_restore() const;

  // blam-ckpt: skip -- construction input; restore requires an engine freshly built from the same ScenarioConfig
  ScenarioConfig config_;
  // blam-ckpt: skip -- re-derived by plan_shards() from the same config and deployment at construction
  ShardPlan plan_;
  // blam-ckpt: skip -- thread coordination, rebuilt at construction
  std::unique_ptr<ShardBarrier> barrier_;
  // blam-ckpt: skip -- epoch-merge machinery, rebuilt at construction
  std::unique_ptr<FleetReducer> reducer_;
  // blam-ckpt: skip -- sized once, never reallocated; rows travel in each node's section, counters refilled by finalize_metrics()
  Metrics fleet_;
  std::vector<std::unique_ptr<Network>> slices_;
  /// CPU seconds each slice has run, across run_until calls.
  // blam-ckpt: skip -- CPU-time measurement, not simulation state
  std::vector<double> busy_seconds_;
  Time cursor_{};
  /// BLAM_CHECKPOINT_EVERY: dissemination epochs between rolling
  /// checkpoints (0 = off).
  // blam-ckpt: skip -- env-resolved policy (BLAM_CHECKPOINT_EVERY), re-read at construction
  std::int64_t checkpoint_every_{0};
  /// BLAM_CHECKPOINT_DIR: directory for the rolling checkpoint file.
  // blam-ckpt: skip -- env-resolved policy (BLAM_CHECKPOINT_DIR), re-read at construction
  std::string checkpoint_dir_;
  /// The quoted message of the restore() that failed; empty while the
  /// engine is usable.
  // blam-ckpt: skip -- set only by a failed restore, after which the engine refuses to checkpoint
  std::string failed_restore_;
};

}  // namespace blam
