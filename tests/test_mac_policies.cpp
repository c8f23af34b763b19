#include <gtest/gtest.h>

#include <vector>

#include "mac/blam_mac.hpp"
#include "mac/greedy_green_mac.hpp"
#include "mac/lorawan_mac.hpp"

namespace blam {
namespace {

Energy J(double j) { return Energy::from_joules(j); }

WindowContext context(const std::vector<Energy>& harvest, const std::vector<Energy>& cost,
                      const UtilityFunction& utility, double w_u) {
  WindowContext ctx;
  ctx.n_windows = static_cast<int>(harvest.size());
  ctx.window_length = Time::from_minutes(1.0);
  ctx.battery = J(5.0);
  ctx.battery_capacity = J(10.0);
  ctx.w_u = w_u;
  ctx.w_b = 1.0;
  ctx.harvest_forecast = harvest;
  ctx.tx_cost = cost;
  ctx.max_tx = J(1.0);
  ctx.utility = &utility;
  return ctx;
}

TEST(LorawanMac, AlwaysWindowZero) {
  LorawanMac mac;
  LinearUtility u;
  const std::vector<Energy> harvest(10, J(0.0));
  const std::vector<Energy> cost(10, J(1.0));
  const MacDecision d = mac.select_window(context(harvest, cost, u, 1.0));
  EXPECT_TRUE(d.transmit);
  EXPECT_EQ(d.window, 0);
  EXPECT_DOUBLE_EQ(mac.soc_cap(), 1.0);
  EXPECT_FALSE(mac.needs_forecasts());
  EXPECT_FALSE(mac.reports_soc());
  EXPECT_EQ(mac.name(), "LoRaWAN");
}

TEST(ThetaOnlyMac, WindowZeroWithCap) {
  ThetaOnlyMac mac{0.5};
  LinearUtility u;
  const std::vector<Energy> harvest(10, J(0.0));
  const std::vector<Energy> cost(10, J(1.0));
  const MacDecision d = mac.select_window(context(harvest, cost, u, 1.0));
  EXPECT_TRUE(d.transmit);
  EXPECT_EQ(d.window, 0);
  EXPECT_DOUBLE_EQ(mac.soc_cap(), 0.5);
  EXPECT_FALSE(mac.needs_forecasts());
  EXPECT_TRUE(mac.reports_soc());
  EXPECT_EQ(mac.name(), "H-50C");
  EXPECT_THROW(ThetaOnlyMac{1.5}, std::invalid_argument);
}

TEST(BlamMac, NamesFollowTheta) {
  EXPECT_EQ(BlamMac{0.05}.name(), "H-5");
  EXPECT_EQ(BlamMac{0.5}.name(), "H-50");
  EXPECT_EQ(BlamMac{1.0}.name(), "H-100");
  EXPECT_THROW(BlamMac{0.0}, std::invalid_argument);
  EXPECT_THROW(BlamMac{1.0001}, std::invalid_argument);
}

TEST(BlamMac, RunsAlgorithmOne) {
  BlamMac mac{0.5};
  LinearUtility u;
  // Degraded node, harvest only in window 2.
  std::vector<Energy> harvest{J(0.0), J(0.0), J(2.0), J(0.0)};
  std::vector<Energy> cost(4, J(1.0));
  const MacDecision d = mac.select_window(context(harvest, cost, u, 1.0));
  EXPECT_TRUE(d.transmit);
  EXPECT_EQ(d.window, 2);
  EXPECT_TRUE(mac.needs_forecasts());
  EXPECT_TRUE(mac.reports_soc());
}

TEST(BlamMac, ThetaCapAppliedToCarryOver) {
  BlamMac mac{0.05};  // cap = 0.5 J of the 10 J capacity
  LinearUtility u;
  std::vector<Energy> harvest(4, J(0.3));
  std::vector<Energy> cost(4, J(1.0));
  WindowContext ctx = context(harvest, cost, u, 0.0);
  ctx.battery = J(0.0);
  ctx.soc_cap = mac.soc_cap();  // a node boots at its policy's theta
  // Carry-over saturates at 0.5, plus 0.3 in-window < 1.0 -> FAIL.
  const MacDecision d = mac.select_window(ctx);
  EXPECT_FALSE(d.transmit);
}

TEST(BlamMac, FreshNodePrioritizesUtility) {
  BlamMac mac{0.5};
  LinearUtility u;
  std::vector<Energy> harvest{J(0.0), J(2.0)};
  std::vector<Energy> cost(2, J(1.0));
  // w_u = 0: picks window 0 despite DIF.
  const MacDecision d = mac.select_window(context(harvest, cost, u, 0.0));
  EXPECT_TRUE(d.transmit);
  EXPECT_EQ(d.window, 0);
}

TEST(GreedyGreenMac, PicksTheGreenestWindow) {
  GreedyGreenMac mac;
  LinearUtility u;
  std::vector<Energy> harvest{J(0.5), J(2.0), J(1.0), J(2.0)};
  std::vector<Energy> cost(4, J(1.0));
  const MacDecision d = mac.select_window(context(harvest, cost, u, 1.0));
  EXPECT_TRUE(d.transmit);
  EXPECT_EQ(d.window, 1);  // earliest of the tied maxima
  EXPECT_DOUBLE_EQ(mac.soc_cap(), 1.0);
  EXPECT_TRUE(mac.needs_forecasts());
  EXPECT_EQ(mac.name(), "GreedyGreen");
}

TEST(GreedyGreenMac, NightDegeneratesToAloha) {
  GreedyGreenMac mac;
  LinearUtility u;
  std::vector<Energy> harvest(6, J(0.0));
  std::vector<Energy> cost(6, J(1.0));
  const MacDecision d = mac.select_window(context(harvest, cost, u, 0.0));
  EXPECT_TRUE(d.transmit);
  EXPECT_EQ(d.window, 0);
}

TEST(GreedyGreenMac, IgnoresDegradationWeight) {
  GreedyGreenMac mac;
  LinearUtility u;
  std::vector<Energy> harvest{J(0.0), J(3.0)};
  std::vector<Energy> cost(2, J(1.0));
  const MacDecision low = mac.select_window(context(harvest, cost, u, 0.0));
  const MacDecision high = mac.select_window(context(harvest, cost, u, 1.0));
  EXPECT_EQ(low.window, high.window);
}

}  // namespace
}  // namespace blam
