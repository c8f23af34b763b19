// Fidelity of the gateway's degradation estimate (paper Sec. III-B): the
// gateway reconstructs each battery's aging from the TWO SoC transition
// points piggy-backed per packet; the node's own tracker sees every
// transition. The paper argues the two-point report is sufficient — these
// tests quantify that claim in the live protocol.
#include <gtest/gtest.h>

#include "net/deployment_plan.hpp"
#include "sim/shard_engine.hpp"

namespace blam {
namespace {

TEST(DegradationFidelity, GatewayEstimateTracksGroundTruth) {
  ScenarioConfig c = blam_scenario(15, 0.5, 23);
  ShardedNetwork network{c};
  const Time now = Time::from_days(20.0);
  network.run_until(now);

  for (std::uint32_t id = 0; id < 15; ++id) {
    const double truth = network.node(id).tracker().degradation(now);
    const double estimate = network.slice(0).server().service().degradation(id);
    ASSERT_GT(truth, 0.0);
    ASSERT_GT(estimate, 0.0);
    // The subsampled trace misses micro-cycles (underestimates cycle aging)
    // and lags by up to a dissemination period, but must stay within a few
    // percent of ground truth — the property w_u fairness relies on.
    EXPECT_NEAR(estimate / truth, 1.0, 0.05) << "node " << id;
  }
}

TEST(DegradationFidelity, NormalizedWeightsOrderLikeGroundTruth) {
  const ScenarioConfig c = blam_scenario(12, 0.5, 24);
  // Widen panel diversity so nodes genuinely degrade at different rates:
  // each planned U[0.8, 1.2] scale maps onto U[0.5, 1.5], draw for draw.
  DeploymentPlan plan = plan_deployment(c, Rng{c.seed, salt::kRootStream});
  for (NodePlan& node : plan.nodes) node.panel_scale = 0.5 + (node.panel_scale - 0.8) / 0.4;
  ShardedNetwork network{c, plan};
  const Time now = Time::from_days(15.0);
  network.run_until(now);

  // Spearman-style check: the gateway's per-node ordering should broadly
  // agree with ground truth (identical ordering is not guaranteed because
  // the estimate lags).
  std::vector<std::pair<double, double>> pairs;  // (truth, estimate)
  for (std::uint32_t id = 0; id < 12; ++id) {
    pairs.push_back({network.node(id).tracker().degradation(now),
                     network.slice(0).server().service().degradation(id)});
  }
  int concordant = 0;
  int discordant = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (std::size_t j = i + 1; j < pairs.size(); ++j) {
      const double dt = pairs[i].first - pairs[j].first;
      const double de = pairs[i].second - pairs[j].second;
      if (dt * de > 0) {
        ++concordant;
      } else if (dt * de < 0) {
        ++discordant;
      }
    }
  }
  EXPECT_GT(concordant, 3 * discordant);
}

TEST(DegradationFidelity, CycleAgingIsUnderestimatedNotOverestimated) {
  // The two-point report can only MISS cycles, never invent them: the
  // gateway's cycle-aging component must not exceed the node's.
  ScenarioConfig c = blam_scenario(10, 0.5, 25);
  ShardedNetwork network{c};
  const Time now = Time::from_days(10.0);
  network.run_until(now);

  for (std::uint32_t id = 0; id < 10; ++id) {
    const Node& node = network.node(id);
    const double truth_cycles = node.tracker().cycle_linear();
    // The service has no public per-component access; compare full cycles
    // via the degradation difference when calendar terms are near-equal.
    // Cheap proxy: estimate <= truth + small epsilon (calendar lag).
    const double estimate = network.slice(0).server().service().degradation(id);
    const double truth = node.tracker().degradation(now);
    EXPECT_LE(estimate, truth * 1.02 + 1e-9) << "node " << id;
    EXPECT_GE(truth_cycles, 0.0);
  }
}

}  // namespace
}  // namespace blam
