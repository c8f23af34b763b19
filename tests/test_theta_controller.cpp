#include "core/theta_controller.hpp"

#include <gtest/gtest.h>

#include "net/experiment.hpp"
#include "sim/shard_engine.hpp"

namespace blam {
namespace {

ThetaController::Config config() {
  ThetaController::Config c;
  c.theta_min = 0.2;
  c.theta_max = 0.9;
  c.initial = 0.5;
  c.step = 0.1;
  c.loss_raise = 0.05;
  c.loss_lower = 0.005;
  c.window_packets = 10;
  return c;
}

TEST(ThetaController, ValidatesConfig) {
  auto c = config();
  c.theta_min = 0.0;
  EXPECT_THROW(ThetaController{c}, std::invalid_argument);
  c = config();
  c.initial = 0.95;
  EXPECT_THROW(ThetaController{c}, std::invalid_argument);
  c = config();
  c.step = 0.0;
  EXPECT_THROW(ThetaController{c}, std::invalid_argument);
  c = config();
  c.loss_lower = 0.2;  // > loss_raise
  EXPECT_THROW(ThetaController{c}, std::invalid_argument);
  c = config();
  c.window_packets = 0;
  EXPECT_THROW(ThetaController{c}, std::invalid_argument);
}

TEST(ThetaController, StartsAtInitial) {
  ThetaController controller{config()};
  EXPECT_DOUBLE_EQ(controller.theta(7), 0.5);
}

TEST(ThetaController, CleanDeliveryLowersTheta) {
  ThetaController controller{config()};
  std::optional<double> update;
  for (std::uint32_t seq = 1; seq <= 10; ++seq) {
    update = controller.on_delivery(1, seq);
  }
  ASSERT_TRUE(update.has_value());
  EXPECT_DOUBLE_EQ(*update, 0.4);  // zero loss -> step down
  EXPECT_DOUBLE_EQ(controller.theta(1), 0.4);
}

TEST(ThetaController, GapsInferLossAndRaiseTheta) {
  ThetaController controller{config()};
  // Deliver every third sequence number: loss rate ~ 2/3 > loss_raise.
  std::optional<double> update;
  std::uint32_t seq = 1;
  while (!update.has_value()) {
    update = controller.on_delivery(1, seq);
    seq += 3;
  }
  EXPECT_DOUBLE_EQ(*update, 0.6);
}

TEST(ThetaController, ClampsAtBounds) {
  ThetaController controller{config()};
  // Push down repeatedly: clamps at theta_min and stops reporting changes.
  std::uint32_t seq = 0;
  int updates = 0;
  for (int window = 0; window < 10; ++window) {
    for (int i = 0; i < 10; ++i) {
      if (controller.on_delivery(1, ++seq).has_value()) ++updates;
    }
  }
  EXPECT_DOUBLE_EQ(controller.theta(1), 0.2);
  EXPECT_EQ(updates, 3);  // 0.5 -> 0.4 -> 0.3 -> 0.2, then silent
}

TEST(ThetaController, ModerateLossHoldsSteady) {
  auto c = config();
  c.window_packets = 50;
  ThetaController controller{c};
  // One gap in ~50 packets: loss ~2%, between the thresholds -> no change.
  std::uint32_t seq = 0;
  for (int i = 0; i < 49; ++i) {
    EXPECT_FALSE(controller.on_delivery(1, ++seq).has_value());
  }
  ++seq;  // skip one sequence number
  const auto update = controller.on_delivery(1, ++seq);
  EXPECT_FALSE(update.has_value());
  EXPECT_DOUBLE_EQ(controller.theta(1), 0.5);
}

TEST(ThetaController, DuplicatesIgnored) {
  ThetaController controller{config()};
  EXPECT_FALSE(controller.on_delivery(1, 5).has_value());
  EXPECT_FALSE(controller.on_delivery(1, 5).has_value());  // duplicate
  EXPECT_FALSE(controller.on_delivery(1, 3).has_value());  // reorder
  EXPECT_DOUBLE_EQ(controller.theta(1), 0.5);
}

TEST(ThetaController, NodesIndependent) {
  ThetaController controller{config()};
  for (std::uint32_t seq = 1; seq <= 10; ++seq) controller.on_delivery(1, seq);
  EXPECT_DOUBLE_EQ(controller.theta(1), 0.4);
  EXPECT_DOUBLE_EQ(controller.theta(2), 0.5);
}

TEST(AdaptiveThetaNetwork, HealthyNetworkDriftsThetaDown) {
  // A comfortable H-50 network loses almost nothing: the manager walks the
  // caps down toward theta_min, buying calendar lifespan for free.
  ScenarioConfig c = blam_scenario(15, 0.5, 61);
  c.adaptive_theta = true;
  ShardedNetwork network{c};
  network.run_until(Time::from_days(10.0));
  double mean_cap = 0.0;
  for (std::uint32_t id = 0; id < 15; ++id) {
    const Node& node = network.node(id);
    mean_cap += node.soc_cap();
    EXPECT_LE(node.battery().soc(), node.soc_cap() + 1e-9);
  }
  mean_cap /= 15.0;
  EXPECT_LT(mean_cap, 0.5);
}

TEST(AdaptiveThetaNetwork, ReducesDegradationVersusFixedTheta) {
  ScenarioConfig fixed = blam_scenario(15, 0.5, 62);
  ScenarioConfig adaptive = fixed;
  adaptive.adaptive_theta = true;
  const auto trace = build_shared_trace(fixed);
  const ExperimentResult a = run_scenario(fixed, Time::from_days(20.0), trace);
  const ExperimentResult b = run_scenario(adaptive, Time::from_days(20.0), trace);
  EXPECT_LE(b.summary.degradation_box.mean, a.summary.degradation_box.mean);
  EXPECT_GT(b.summary.mean_prr, 0.95);
}

}  // namespace
}  // namespace blam
