// Property sweep over solar-trace seeds: physical invariants every
// synthesized year must satisfy regardless of the weather realization.
#include <gtest/gtest.h>

#include <algorithm>

#include "energy/solar.hpp"

namespace blam {
namespace {

class SolarPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  SolarTrace make_trace() const {
    SolarTraceConfig c;
    c.peak = Power::from_milli_watts(25.0);
    c.seed = static_cast<std::uint64_t>(GetParam()) * 101 + 1;
    return SolarTrace{c};
  }
};

TEST_P(SolarPropertyTest, PowerIsNonNegativeEverywhere) {
  const SolarTrace trace = make_trace();
  for (int day = 0; day < 365; day += 11) {
    for (int hour = 0; hour < 24; hour += 3) {
      const Time t = Time::from_days(day) + Time::from_hours(hour);
      EXPECT_GE(trace.power_at(t).watts(), 0.0) << "day " << day << " hour " << hour;
    }
  }
}

TEST_P(SolarPropertyTest, NightsAreUniversallyDark) {
  const SolarTrace trace = make_trace();
  for (int day = 0; day < 365; day += 7) {
    // 02:00 is inside the night for any day length in [9, 15] h.
    const Time t = Time::from_days(day) + Time::from_hours(2.0);
    EXPECT_DOUBLE_EQ(trace.power_at(t).watts(), 0.0) << "day " << day;
  }
}

TEST_P(SolarPropertyTest, EveryDayHarvestsSomething) {
  const SolarTrace trace = make_trace();
  for (int day = 0; day < 365; ++day) {
    const Energy harvest =
        trace.energy_between(Time::from_days(day), Time::from_days(day + 1));
    EXPECT_GT(harvest.joules(), 0.0) << "day " << day;
  }
}

TEST_P(SolarPropertyTest, IntegralIsMonotoneAndAdditive) {
  const SolarTrace trace = make_trace();
  const Time base = Time::from_days(GetParam() % 300);
  double prev = 0.0;
  for (int h = 1; h <= 48; ++h) {
    const double joules = trace.energy_between(base, base + Time::from_hours(h)).joules();
    EXPECT_GE(joules, prev - 1e-12);
    prev = joules;
  }
  const double whole = trace.energy_between(base, base + Time::from_hours(48.0)).joules();
  const double split = trace.energy_between(base, base + Time::from_hours(17.0)).joules() +
                       trace.energy_between(base + Time::from_hours(17.0),
                                            base + Time::from_hours(48.0)).joules();
  EXPECT_NEAR(whole, split, 1e-9);
}

TEST_P(SolarPropertyTest, SummerOutHarvestsWinterOnAverage) {
  const SolarTrace trace = make_trace();
  const Energy summer = trace.energy_between(Time::from_days(150.0), Time::from_days(210.0));
  const Energy winter = trace.energy_between(Time::from_days(335.0), Time::from_days(365.0)) +
                        trace.energy_between(Time::from_days(0.0), Time::from_days(30.0));
  EXPECT_GT(summer.joules(), winter.joules());
}

TEST_P(SolarPropertyTest, PeakStaysWithinNoiseBand) {
  const SolarTrace trace = make_trace();
  double peak = 0.0;
  for (Time t = Time::zero(); t < trace.period(); t = t + Time::from_minutes(1.0)) {
    peak = std::max(peak, trace.power_at(t).watts());
  }
  EXPECT_GT(peak, 0.25 * 0.025);
  EXPECT_LT(peak, 2.5 * 0.025);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolarPropertyTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace blam
