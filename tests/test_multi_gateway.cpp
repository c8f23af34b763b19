// Multi-gateway deployments ("one or more gateways", paper Sec. II-C):
// every gateway hears every uplink at its own receive power; the network
// server picks the strongest copy and ACKs through that gateway.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "net/deployment_plan.hpp"
#include "net/experiment.hpp"
#include "sim/shard_engine.hpp"

namespace blam {
namespace {

ScenarioConfig scenario(int n_gateways, int nodes = 25, std::uint64_t seed = 17) {
  ScenarioConfig c = lorawan_scenario(nodes, seed);
  c.n_gateways = n_gateways;
  return c;
}

TEST(MultiGateway, ConfigValidation) {
  ScenarioConfig c = scenario(0);
  EXPECT_THROW(ShardedNetwork{c}, std::invalid_argument);
}

TEST(MultiGateway, BuildsRequestedGateways) {
  ShardedNetwork one{scenario(1)};
  EXPECT_EQ(one.slice(0).gateways().size(), 1u);
  EXPECT_DOUBLE_EQ(one.slice(0).gateways()[0]->position().x_m, 0.0);

  ShardedNetwork four{scenario(4)};
  EXPECT_EQ(four.slice(0).gateways().size(), 4u);
  // Ring placement: all at half the radius.
  for (const auto& gw : four.slice(0).gateways()) {
    EXPECT_NEAR(gw->position().distance_to(Position{0.0, 0.0}), 2500.0, 1.0);
  }
}

TEST(MultiGateway, EveryGatewayHearsEveryAttempt) {
  ScenarioConfig c = scenario(3, 10);
  ShardedNetwork network{c};
  network.run_until(Time::from_days(1.0));
  network.finalize_metrics();
  std::uint64_t attempts = 0;
  for (std::size_t i = 0; i < network.metrics().node_count(); ++i) {
    attempts += network.metrics().node(i).tx_attempts;
  }
  EXPECT_EQ(network.metrics().gateway().arrivals, attempts * 3);
}

TEST(MultiGateway, StillDeliversAndAcks) {
  const ExperimentResult r = run_scenario(scenario(3, 10), Time::from_days(1.0));
  EXPECT_GT(r.summary.mean_prr, 0.95);
  EXPECT_GT(r.gateway.acks_sent, 0u);
}

TEST(MultiGateway, DeterministicAcrossRuns) {
  const ExperimentResult a = run_scenario(scenario(3, 10), Time::from_days(1.0));
  const ExperimentResult b = run_scenario(scenario(3, 10), Time::from_days(1.0));
  EXPECT_EQ(a.events_executed, b.events_executed);
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].delivered, b.nodes[i].delivered);
  }
}

TEST(MultiGateway, DiversityHelpsEdgeNodesUnderDistanceBasedSf) {
  // With distance-based SF and a large, shadowed area, gateway diversity
  // lowers the SF mix (closer best-gateway) and cannot hurt PRR.
  auto config_for = [](int gateways) {
    ScenarioConfig c = lorawan_scenario(40, 21);
    c.n_gateways = gateways;
    c.radius_m = 7000.0;
    c.sf_assignment = SfAssignment::kDistanceBased;
    c.path_loss.shadowing_sigma_db = 6.0;
    return c;
  };
  ShardedNetwork single{config_for(1)};
  ShardedNetwork triple{config_for(3)};
  double sf_sum_single = 0.0;
  double sf_sum_triple = 0.0;
  for (std::uint32_t id = 0; id < 40; ++id) {
    sf_sum_single += sf_value(single.node(id).sf());
    sf_sum_triple += sf_value(triple.node(id).sf());
  }
  EXPECT_LE(sf_sum_triple, sf_sum_single);
}

TEST(MultiGateway, NodeTracksPerGatewayLosses) {
  ShardedNetwork network{scenario(3, 5)};
  for (std::uint32_t id = 0; id < 5; ++id) {
    const Node& node = network.node(id);
    double best = 1e300;
    for (int g = 0; g < 3; ++g) best = std::min(best, node.link_loss_db(g));
    EXPECT_DOUBLE_EQ(best, node.min_link_loss_db());
    EXPECT_THROW((void)node.link_loss_db(3), std::out_of_range);
  }
}

/// A finite-floor city whose 2 km clusters on a 3 km grid leave every node
/// within reach of some of the 16 gateways but not all.
ScenarioConfig partial_reach_city(std::uint64_t seed = 23) {
  ScenarioConfig c = blam_scenario(300, /*theta=*/0.5, seed);
  c.n_gateways = 16;
  c.gateway_grid_pitch_m = 3000.0;
  c.cluster_radius_m = 2000.0;
  c.interference_floor_dbm = -143.0;
  c.sf_assignment = SfAssignment::kDistanceBased;
  return c;
}

/// Gateways an uplink at `power_dbm` over `losses` clears the floor at.
int audible_at(std::span<const double> losses, double power_dbm, double floor_dbm) {
  int n = 0;
  for (const double loss : losses) n += power_dbm - loss < floor_dbm ? 0 : 1;
  return n;
}

// Uplinks are handed only to the gateways a node can reach; every other
// gateway's copy is counted as an arrival dropped under the floor. The
// counters must equal what handing every copy to every gateway gives:
// gateways x attempts arrivals, and a per-node recount from the deployment
// of the copies under each gateway's floor or SF sensitivity.
TEST(MultiGateway, AudibleFanOutIsExact) {
  const ScenarioConfig c = partial_reach_city();
  const DeploymentPlan plan = plan_deployment(c, Rng{c.seed, salt::kRootStream});
  ShardedNetwork network{c};
  network.run_until(Time::from_days(1.0));
  network.finalize_metrics();

  std::uint64_t attempts = 0;
  std::uint64_t under_floor = 0;
  std::uint64_t under_sensitivity = 0;
  int partial_reach_nodes = 0;
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const Node& node = network.node(static_cast<std::uint32_t>(i));
    const std::uint64_t tx = network.metrics().node(i).tx_attempts;
    attempts += tx;
    const std::span<const double> losses = plan.losses_db(i);
    const int audible = audible_at(losses, kDeviceTxPowerDbm, c.interference_floor_dbm);
    if (audible > 0 && audible < c.n_gateways) ++partial_reach_nodes;
    for (int g = 0; g < c.n_gateways; ++g) {
      const double loss = losses[static_cast<std::size_t>(g)];
      const double rx = kDeviceTxPowerDbm - loss;
      if (rx < c.interference_floor_dbm) {
        under_floor += tx;
        EXPECT_THROW((void)node.link_loss_db(g), std::out_of_range);
      } else {
        EXPECT_EQ(node.link_loss_db(g), loss);
        if (rx < gateway_sensitivity_dbm(node.sf())) under_sensitivity += tx;
      }
    }
  }
  EXPECT_GT(partial_reach_nodes, 0);
  EXPECT_GT(under_floor, 0u);
  const GatewayMetrics& gm = network.metrics().gateway();
  EXPECT_EQ(gm.arrivals, attempts * static_cast<std::uint64_t>(c.n_gateways));
  EXPECT_EQ(gm.lost_under_sensitivity, under_floor + under_sensitivity);
}

// The planner's distance-based SF is min_spreading_factor against the
// strongest gateway, and SF12 for a node no SF serves.
TEST(MultiGateway, DistanceSfFallsBackToSf12WhenNothingCloses) {
  ScenarioConfig c = scenario(1, 40);
  c.radius_m = 30000.0;  // SF12 reaches ~6.5 km: most nodes are out of range
  c.sf_assignment = SfAssignment::kDistanceBased;
  const DeploymentPlan plan = plan_deployment(c, Rng{c.seed, salt::kRootStream});
  int unserved = 0;
  for (const NodePlan& node : plan.nodes) {
    const auto sf = min_spreading_factor(kDeviceTxPowerDbm - node.best_loss_db);
    unserved += sf.has_value() ? 0 : 1;
    EXPECT_EQ(node.sf, sf.value_or(SpreadingFactor::kSF12));
  }
  EXPECT_GT(unserved, 0);
  EXPECT_LT(unserved, static_cast<int>(plan.nodes.size()));
}

// The flat loss matrix holds exactly what a vector per node held: on a
// shadowed city, whose draws run in (node, gateway) order, every entry is
// the Link recomputed in that order, bit for bit; and the per-SF attempt
// energy sizes every battery and the solar peak exactly as a per-node
// computation does.
TEST(MultiGateway, PlanMatrixAndBatteriesEqualPerNodeRecomputation) {
  ScenarioConfig c = partial_reach_city(/*seed=*/31);
  c.cluster_radius_m = 8000.0;  // nodes far enough out to need every SF
  c.path_loss.shadowing_sigma_db = 6.0;
  const Rng root{c.seed, salt::kRootStream};
  const DeploymentPlan plan = plan_deployment(c, root);
  ASSERT_EQ(plan.link_losses_db.size(), plan.nodes.size() * plan.gateway_positions.size());

  Rng shadow_rng = root.fork(salt::kShadowing);
  Energy worst = Energy::zero();
  std::array<int, kAllSpreadingFactors.size()> nodes_at_sf{};
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const NodePlan& node = plan.nodes[i];
    ++nodes_at_sf[sf_index(node.sf)];
    const std::span<const double> losses = plan.losses_db(i);
    ASSERT_EQ(losses.size(), plan.gateway_positions.size());
    for (std::size_t g = 0; g < losses.size(); ++g) {
      const Link link{node.position, plan.gateway_positions[g], c.path_loss, shadow_rng};
      EXPECT_EQ(std::bit_cast<std::uint64_t>(losses[g]),
                std::bit_cast<std::uint64_t>(link.total_loss_db()))
          << "node " << i << " gateway " << g;
    }

    TxParams params;
    params.sf = node.sf;
    params.bandwidth_hz = 125e3;
    params.payload_bytes = kPayloadBytes + 4;
    params = params.with_auto_ldro();
    const Energy per_attempt =
        tx_energy(params, kSx1276) + kSx1276.rx_power() * (kRxWindowDuration * std::int64_t{2});
    worst = std::max(worst, per_attempt);
    const Energy daily = kSx1276.sleep_power() * Time::from_days(1.0) +
                         per_attempt * (86400.0 / node.period.seconds());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(node.battery_capacity.joules()),
              std::bit_cast<std::uint64_t>((daily * kBatteryDays).joules()))
        << "node " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plan.worst_attempt_energy.joules()),
            std::bit_cast<std::uint64_t>(worst.joules()));
  for (const SpreadingFactor sf : kAllSpreadingFactors) {
    EXPECT_GT(nodes_at_sf[sf_index(sf)], 0) << "no node at " << to_string(sf);
  }
}

}  // namespace
}  // namespace blam
