// Deployment planning: the RNG-consuming phase of Network construction
// (topology, shadowing, per-node traffic draws) factored out so the serial
// Network and the sharded engine (sim/shard_engine.hpp) build from one
// plan with one draw order. For the legacy centre/ring layouts the draw
// sequence is byte-for-byte the historical Network::build sequence; the
// grid/cluster city layout (gateway_grid_pitch_m > 0) is new and has no
// compatibility constraint.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "energy/solar.hpp"
#include "lora/link.hpp"
#include "lora/params.hpp"
#include "net/scenario.hpp"

namespace blam {

/// Everything about one node that is decided before the simulation starts.
struct NodePlan {
  Position position{};
  /// Frozen link budget to every gateway, indexed by gateway id.
  std::vector<double> losses_db;
  double best_loss_db{0.0};
  SpreadingFactor sf{SpreadingFactor::kSF10};
  Time period{};
  double panel_scale{1.0};
  /// Battery sized for kBatteryDays of operation without recharge.
  Energy battery_capacity{};
};

struct DeploymentPlan {
  std::vector<Position> gateway_positions;
  std::vector<NodePlan> nodes;
  /// Worst-case one-attempt energy across the fleet (sizes the solar peak).
  Energy worst_attempt_energy{};
};

/// Draws the full deployment from the scenario root rng. `root` is only
/// forked (fork() is const and order-independent), never advanced.
[[nodiscard]] DeploymentPlan plan_deployment(const ScenarioConfig& config, const Rng& root);

/// Builds the solar trace for a deployment (peak sized from the worst-case
/// attempt energy).
[[nodiscard]] std::shared_ptr<const SolarTrace> build_deployment_trace(
    const ScenarioConfig& config, Energy worst_attempt);

/// Ingestion-queue watermark: scenario knob overridable via BLAM_INGEST_BATCH.
[[nodiscard]] std::size_t resolve_ingest_batch(const ScenarioConfig& config);

}  // namespace blam
