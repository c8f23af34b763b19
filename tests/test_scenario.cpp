#include "net/scenario.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "mac/greedy_green_mac.hpp"

namespace blam {
namespace {

TEST(ScenarioPresets, LorawanDefaultsMatchPaper) {
  const ScenarioConfig c = lorawan_scenario(500, 7);
  EXPECT_EQ(c.policy, PolicyKind::kLorawan);
  EXPECT_EQ(c.n_nodes, 500);
  EXPECT_EQ(c.seed, 7u);
  EXPECT_DOUBLE_EQ(c.theta, 1.0);
  EXPECT_DOUBLE_EQ(c.radius_m, 5000.0);                       // 5 km max distance
  EXPECT_EQ(c.min_period, Time::from_minutes(16.0));          // [16, 60] min
  EXPECT_EQ(c.max_period, Time::from_minutes(60.0));
  EXPECT_EQ(c.forecast_window, Time::from_minutes(1.0));      // 1-min windows
  EXPECT_DOUBLE_EQ(c.w_b, 1.0);                               // w_b = 1
  EXPECT_TRUE(c.thermal.insulated);                           // insulated 25 C
  EXPECT_EQ(kPayloadBytes, 10);                               // 10-byte packets
  EXPECT_EQ(kMaxTransmissions, 8);                            // 8 transmissions
  EXPECT_DOUBLE_EQ(TemperatureModel{c.thermal.model()}.at(Time::zero()), 25.0);
  EXPECT_NO_THROW(c.validate());
}

TEST(ScenarioPresets, LabelsFollowThePaper) {
  EXPECT_EQ(lorawan_scenario(1, 1).policy_label(), "LoRaWAN");
  EXPECT_EQ(blam_scenario(1, 0.05, 1).policy_label(), "H-5");
  EXPECT_EQ(blam_scenario(1, 0.5, 1).policy_label(), "H-50");
  EXPECT_EQ(blam_scenario(1, 1.0, 1).policy_label(), "H-100");
  EXPECT_EQ(theta_only_scenario(1, 0.5, 1).policy_label(), "H-50C");
  EXPECT_EQ(greedy_green_scenario(1, 1).policy_label(), "GreedyGreen");
}

TEST(ScenarioPresets, FactoriesMatchPolicies) {
  EXPECT_EQ(make_policy(lorawan_scenario(1, 1))->name(), "LoRaWAN");
  EXPECT_EQ(make_policy(blam_scenario(1, 0.5, 1))->name(), "H-50");
  EXPECT_EQ(make_policy(theta_only_scenario(1, 0.5, 1))->name(), "H-50C");
  EXPECT_EQ(make_policy(greedy_green_scenario(1, 1))->name(), "GreedyGreen");
}

TEST(ScenarioPresets, UtilityFactory) {
  ScenarioConfig c = lorawan_scenario(1, 1);
  EXPECT_EQ(make_utility(c)->name(), "linear");
  c.utility = UtilityKind::kExponential;
  EXPECT_EQ(make_utility(c)->name(), "exponential");
  c.utility = UtilityKind::kStep;
  EXPECT_EQ(make_utility(c)->name(), "step");
}

TEST(ScenarioValidation, CatchesEachBadField) {
  auto expect_invalid = [](auto mutate) {
    ScenarioConfig c = lorawan_scenario(10, 1);
    mutate(c);
    EXPECT_THROW(c.validate(), std::invalid_argument);
  };
  expect_invalid([](ScenarioConfig& c) { c.n_nodes = 0; });
  expect_invalid([](ScenarioConfig& c) { c.radius_m = 0.0; });
  expect_invalid([](ScenarioConfig& c) { c.n_gateways = 0; });
  expect_invalid([](ScenarioConfig& c) { c.min_period = Time::zero(); });
  expect_invalid([](ScenarioConfig& c) { c.max_period = c.min_period - Time::from_minutes(1.0); });
  expect_invalid([](ScenarioConfig& c) { c.forecast_window = c.min_period * 2; });
  expect_invalid([](ScenarioConfig& c) { c.theta = 0.0; });
  expect_invalid([](ScenarioConfig& c) { c.w_b = 1.5; });
  expect_invalid([](ScenarioConfig& c) { c.dissemination_period = Time::zero(); });
  expect_invalid([](ScenarioConfig& c) { c.supercap_tx_buffer = -1.0; });
}

TEST(ScenarioValidation, RejectsNonFiniteFieldsNamingTheField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  {
    ScenarioConfig c = lorawan_scenario(10, 1);
    c.theta = nan;
    try {
      c.validate();
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("theta"), std::string::npos) << e.what();
      EXPECT_NE(std::string{e.what()}.find("finite"), std::string::npos) << e.what();
    }
  }
  auto expect_invalid = [](auto mutate) {
    ScenarioConfig c = lorawan_scenario(10, 1);
    mutate(c);
    EXPECT_THROW(c.validate(), std::invalid_argument);
  };
  expect_invalid([=](ScenarioConfig& c) { c.radius_m = inf; });
  expect_invalid([=](ScenarioConfig& c) { c.stale_feedback_k = nan; });
  expect_invalid([=](ScenarioConfig& c) { c.w_b = nan; });
  expect_invalid([=](ScenarioConfig& c) { c.supercap_tx_buffer = inf; });
  expect_invalid([=](ScenarioConfig& c) { c.interference_floor_dbm = -nan; });
  expect_invalid([=](ScenarioConfig& c) { c.path_loss.shadowing_sigma_db = nan; });
}

TEST(ScenarioValidation, NegativeShadowingSigmaRejectedByName) {
  // A negative sigma would run exactly like 0 under a different scenario key.
  ScenarioConfig c = lorawan_scenario(10, 1);
  c.path_loss.shadowing_sigma_db = -3.0;
  try {
    c.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("shadowing_sigma_db"), std::string::npos) << e.what();
  }
  c.path_loss.shadowing_sigma_db = 0.0;
  EXPECT_NO_THROW(c.validate());
}

TEST(ScenarioValidation, WindowsForRoundsDown) {
  const ScenarioConfig c = lorawan_scenario(1, 1);
  EXPECT_EQ(c.windows_for(Time::from_minutes(16.0)), 16);
  EXPECT_EQ(c.windows_for(Time::from_minutes(16.5)), 16);
  EXPECT_EQ(c.windows_for(Time::from_seconds(30.0)), 1);  // never zero
}

}  // namespace
}  // namespace blam
