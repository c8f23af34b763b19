#include "energy/thermal.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "degradation/tracker.hpp"
#include "net/experiment.hpp"

namespace blam {
namespace {

TEST(TemperatureModel, InsulatedIsConstant) {
  ThermalConfig config;  // insulated 25 C default
  const TemperatureModel model{config};
  EXPECT_DOUBLE_EQ(model.at(Time::zero()), 25.0);
  EXPECT_DOUBLE_EQ(model.at(Time::from_days(182.0)), 25.0);
  EXPECT_DOUBLE_EQ(model.at(Time::from_days(364.9)), 25.0);
}

TEST(TemperatureModel, ValidatesAmplitudes) {
  ThermalConfig config;
  config.seasonal_amplitude_c = -1.0;
  EXPECT_THROW(TemperatureModel{config}, std::invalid_argument);
}

TEST(TemperatureModel, OutdoorSeasonalShape) {
  ThermalConfig config;
  config.insulated = false;
  config.mean_c = 15.0;
  config.seasonal_amplitude_c = 10.0;
  config.diurnal_amplitude_c = 0.0;
  const TemperatureModel model{config};
  // Mid-January (day 15) coldest, ~day 197 warmest.
  EXPECT_NEAR(model.at(Time::from_days(15.0)), 5.0, 0.1);
  EXPECT_NEAR(model.at(Time::from_days(197.5)), 25.0, 0.1);
  // Mean holds over the year.
  double sum = 0.0;
  for (int d = 0; d < 365; ++d) sum += model.at(Time::from_days(d));
  EXPECT_NEAR(sum / 365.0, 15.0, 0.1);
}

TEST(TemperatureModel, OutdoorDiurnalShape) {
  ThermalConfig config;
  config.insulated = false;
  config.mean_c = 15.0;
  config.seasonal_amplitude_c = 0.0;
  config.diurnal_amplitude_c = 6.0;
  const TemperatureModel model{config};
  EXPECT_NEAR(model.at(Time::from_hours(4.0)), 9.0, 0.1);   // coldest 4 am
  EXPECT_NEAR(model.at(Time::from_hours(16.0)), 21.0, 0.1);  // warmest 4 pm
}

TEST(TemperatureModel, TroughsAreStronglyTypedAndConfigurable) {
  ThermalConfig config;
  config.insulated = false;
  config.seasonal_amplitude_c = 10.0;
  config.diurnal_amplitude_c = 0.0;
  config.seasonal_trough = Time::from_days(45.0);  // cold snap in mid-February
  const TemperatureModel model{config};
  EXPECT_NEAR(model.at(Time::from_days(45.0)), config.mean_c - 10.0, 0.1);
  EXPECT_NEAR(model.at(Time::from_days(45.0 + 182.5)), config.mean_c + 10.0, 0.1);

  ThermalConfig night_shift = config;
  night_shift.seasonal_amplitude_c = 0.0;
  night_shift.diurnal_amplitude_c = 6.0;
  night_shift.diurnal_trough = Time::from_hours(6.0);
  const TemperatureModel shifted{night_shift};
  EXPECT_NEAR(shifted.at(Time::from_hours(6.0)), night_shift.mean_c - 6.0, 0.1);
  EXPECT_NEAR(shifted.at(Time::from_hours(18.0)), night_shift.mean_c + 6.0, 0.1);
}

TEST(TemperatureModel, DefaultTroughsReproduceHistoricalTrace) {
  // The strong-typing migration must be bit-transparent: the Time-typed
  // defaults convert back to exactly 15.0 days / 4.0 hours, so the model
  // reproduces the raw-double formula it replaced digit for digit.
  ThermalConfig config;
  config.insulated = false;
  const TemperatureModel model{config};
  EXPECT_EQ(config.seasonal_trough.days(), 15.0);
  EXPECT_EQ(config.diurnal_trough.hours(), 4.0);
  for (const double day : {0.0, 15.0, 100.25, 200.5, 364.75}) {
    const Time t = Time::from_days(day);
    const double d = t.days();
    const double hour = (d - std::floor(d)) * 24.0;
    const double expected =
        config.mean_c -
        config.seasonal_amplitude_c * std::cos(2.0 * std::numbers::pi * (d - 15.0) / 365.0) -
        config.diurnal_amplitude_c * std::cos(2.0 * std::numbers::pi * (hour - 4.0) / 24.0);
    EXPECT_EQ(model.at(t), expected) << "day " << day;
  }
}

TEST(TemperatureModel, ValidatesTroughRanges) {
  ThermalConfig config;
  config.seasonal_trough = Time::from_days(365.0);
  EXPECT_THROW(TemperatureModel{config}, std::invalid_argument);
  config.seasonal_trough = Time::from_days(-1.0);
  EXPECT_THROW(TemperatureModel{config}, std::invalid_argument);
  config.seasonal_trough = Time::from_days(15.0);
  config.diurnal_trough = Time::from_hours(24.0);
  EXPECT_THROW(TemperatureModel{config}, std::invalid_argument);
}

TEST(TrackerThermal, ConstantTemperatureMatchesLegacyFormula) {
  const DegradationModel model{};
  DegradationTracker tracker{model, 35.0};
  tracker.record(Time::zero(), 0.6);
  tracker.record(Time::from_days(100.0), 0.6);
  EXPECT_NEAR(tracker.calendar_linear(Time::from_days(100.0)),
              model.calendar_aging(Time::from_days(100.0), 0.6, 35.0), 1e-15);
}

TEST(TrackerThermal, TemperatureChangeSplitsTheIntegral) {
  const DegradationModel model{};
  DegradationTracker tracker{model, 25.0};
  tracker.record(Time::zero(), 0.5);
  tracker.record(Time::from_days(50.0), 0.5);
  tracker.set_temperature(Time::from_days(50.0), 45.0);
  tracker.record(Time::from_days(100.0), 0.5);
  const double expected = model.calendar_aging(Time::from_days(50.0), 0.5, 25.0) +
                          model.calendar_aging(Time::from_days(50.0), 0.5, 45.0);
  EXPECT_NEAR(tracker.calendar_linear(Time::from_days(100.0)), expected, 1e-12);
}

TEST(TrackerThermal, SetTemperatureRejectsTimeTravel) {
  const DegradationModel model{};
  DegradationTracker tracker{model, 25.0};
  tracker.record(Time::from_days(10.0), 0.5);
  EXPECT_THROW(tracker.set_temperature(Time::from_days(5.0), 30.0), std::invalid_argument);
}

TEST(TrackerThermal, HotSpellAgesMoreThanAverageTemperature) {
  // Jensen: S_T is convex in T, so alternating 15/35 C ages faster than a
  // constant 25 C at the same mean.
  const DegradationModel model{};
  DegradationTracker constant{model, 25.0};
  DegradationTracker alternating{model, 15.0};
  constant.record(Time::zero(), 0.5);
  alternating.record(Time::zero(), 0.5);
  for (int day = 1; day <= 100; ++day) {
    const Time t = Time::from_days(day);
    constant.record(t, 0.5);
    alternating.set_temperature(t, day % 2 == 0 ? 15.0 : 35.0);
    alternating.record(t, 0.5);
  }
  const Time end = Time::from_days(100.0);
  EXPECT_GT(alternating.calendar_linear(end), constant.calendar_linear(end));
}

TEST(NetworkThermal, OutdoorSummerNodesAgeFasterThanInsulated) {
  ScenarioConfig insulated = lorawan_scenario(10, 5);
  ScenarioConfig outdoor = insulated;
  outdoor.thermal.insulated = false;
  // Hot climate: the default 10 C seasonal swing still leaves the first 60
  // days (mid-winter) near 31 C on average, above the insulated 25 C.
  outdoor.thermal.mean_c = 40.0;

  const auto trace = build_shared_trace(insulated);
  const ExperimentResult cool = run_scenario(insulated, Time::from_days(60.0), trace);
  const ExperimentResult hot = run_scenario(outdoor, Time::from_days(60.0), trace);
  EXPECT_GT(hot.summary.degradation_box.mean, cool.summary.degradation_box.mean);
}

TEST(NetworkThermal, ColdClimateSlowsAging) {
  ScenarioConfig insulated = lorawan_scenario(10, 5);
  ScenarioConfig outdoor = insulated;
  outdoor.thermal.insulated = false;
  outdoor.thermal.mean_c = 5.0;

  const auto trace = build_shared_trace(insulated);
  const ExperimentResult warm = run_scenario(insulated, Time::from_days(60.0), trace);
  const ExperimentResult cold = run_scenario(outdoor, Time::from_days(60.0), trace);
  EXPECT_LT(cold.summary.degradation_box.mean, warm.summary.degradation_box.mean);
}

}  // namespace
}  // namespace blam
