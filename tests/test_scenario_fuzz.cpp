// Scenario fuzzing: randomized configurations driven through short runs,
// asserting the global invariants that must hold for ANY valid scenario —
// no crash, packet-accounting identity, theta cap, deterministic repeat.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/experiment.hpp"
#include "sim/shard_engine.hpp"

namespace blam {
namespace {

ScenarioConfig random_scenario(Rng& rng) {
  ScenarioConfig c;
  const int policy = static_cast<int>(rng.uniform_int(0, 3));
  c.policy = static_cast<PolicyKind>(policy);
  c.theta = c.policy == PolicyKind::kLorawan || c.policy == PolicyKind::kGreedyGreen
                ? 1.0
                : rng.uniform(0.05, 1.0);
  c.label = c.policy_label();
  c.seed = rng.next_u64();
  c.n_nodes = static_cast<int>(rng.uniform_int(1, 40));
  c.radius_m = rng.uniform(100.0, 8000.0);
  c.n_gateways = static_cast<int>(rng.uniform_int(1, 3));
  const double min_period = rng.uniform(16.0, 30.0);
  c.min_period = Time::from_minutes(min_period);
  c.max_period = Time::from_minutes(min_period + rng.uniform(0.0, 30.0));
  c.forecast_window = Time::from_minutes(rng.uniform(1.0, 4.0));
  c.w_b = rng.uniform(0.0, 1.0);
  c.utility = static_cast<UtilityKind>(rng.uniform_int(0, 2));
  c.uplink_channels = static_cast<int>(rng.uniform_int(1, 8));
  c.sf_assignment = rng.bernoulli(0.5) ? SfAssignment::kFixed : SfAssignment::kDistanceBased;
  c.path_loss.shadowing_sigma_db = rng.uniform(0.0, 8.0);
  c.adr_enabled = rng.bernoulli(0.3);
  c.supercap_tx_buffer = rng.bernoulli(0.3) ? rng.uniform(1.0, 8.0) : 0.0;
  c.thermal.insulated = rng.bernoulli(0.7);
  c.thermal.mean_c = rng.uniform(-5.0, 35.0);
  return c;
}

class ScenarioFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ScenarioFuzzTest, InvariantsHoldUnderRandomConfigs) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 7919 + 3};
  const ScenarioConfig config = random_scenario(rng);
  SCOPED_TRACE("policy=" + config.label + " nodes=" + std::to_string(config.n_nodes) +
               " seed=" + std::to_string(config.seed));

  const Time duration = Time::from_days(1.0);
  const ExperimentResult r = run_scenario(config, duration);

  // Packet accounting: every generated packet is resolved, except at most
  // one in flight per node at the cutoff.
  for (const NodeMetrics& m : r.nodes) {
    const std::uint64_t resolved = m.delivered + m.exhausted + m.policy_drops + m.brownouts;
    EXPECT_GE(m.generated, resolved);
    EXPECT_LE(m.generated - resolved, 1u);
    EXPECT_GE(m.tx_attempts, m.delivered);
    EXPECT_LE(m.utility_sum, static_cast<double>(m.delivered) + 1e-9);
    EXPECT_GE(m.degradation, 0.0);
    EXPECT_LT(m.degradation, 1.0);
  }

  // Gateway bucket balance (arrivals may include in-flight receptions and
  // are multiplied by the gateway count).
  const std::uint64_t outcomes = r.gateway.received + r.gateway.lost_interference +
                                 r.gateway.lost_half_duplex + r.gateway.lost_no_demod_path +
                                 r.gateway.lost_under_sensitivity;
  EXPECT_GE(r.gateway.arrivals, outcomes);

  // Theta cap invariant for the capped policies.
  if (config.policy == PolicyKind::kBlam || config.policy == PolicyKind::kThetaOnly) {
    ShardedNetwork network{config};
    network.run_until(Time::from_hours(30.0));
    for (std::uint32_t id = 0; id < static_cast<std::uint32_t>(config.n_nodes); ++id) {
      EXPECT_LE(network.node(id).battery().soc(), config.theta + 1e-9);
    }
  }

  // Determinism: an identical rerun reproduces the event count exactly.
  const ExperimentResult again = run_scenario(config, duration);
  EXPECT_EQ(again.events_executed, r.events_executed);
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, ScenarioFuzzTest, ::testing::Range(0, 16));

}  // namespace
}  // namespace blam
