#include "degradation/model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace blam {
namespace {

TEST(DegradationModel, ValidatesParams) {
  DegradationParams p;
  p.alpha_sei = 1.0;
  EXPECT_THROW(DegradationModel{p}, std::invalid_argument);
  p = DegradationParams{};
  p.k1 = -1.0;
  EXPECT_THROW(DegradationModel{p}, std::invalid_argument);
  p = DegradationParams{};
  p.eol_threshold = 0.0;
  EXPECT_THROW(DegradationModel{p}, std::invalid_argument);
}

TEST(DegradationModel, TemperatureStressReferencePoint) {
  const DegradationModel m;
  // At the reference temperature the stress is exactly 1.
  EXPECT_DOUBLE_EQ(m.temperature_stress(25.0), 1.0);
  // Hotter batteries age faster, colder slower.
  EXPECT_GT(m.temperature_stress(40.0), 1.0);
  EXPECT_LT(m.temperature_stress(10.0), 1.0);
}

TEST(DegradationModel, CalendarAgingLinearInTime) {
  const DegradationModel m;
  const double one_year = m.calendar_aging(Time::from_days(365.0), 0.5, 25.0);
  const double two_years = m.calendar_aging(Time::from_days(730.0), 0.5, 25.0);
  EXPECT_NEAR(two_years, 2.0 * one_year, 1e-12);
  EXPECT_THROW((void)m.calendar_aging(Time::from_seconds(-1.0), 0.5, 25.0), std::invalid_argument);
}

TEST(DegradationModel, CalendarAgingMonotoneInSoc) {
  const DegradationModel m;
  const Time year = Time::from_days(365.0);
  double prev = 0.0;
  for (double soc : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double d = m.calendar_aging(year, soc, 25.0);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(DegradationModel, CalendarAgingAtReferenceSocIsKt) {
  const DegradationModel m;
  // At phi = k3 and T = k5 the stress factors are 1: D_cal = k1 * seconds.
  const double seconds = 1e6;
  EXPECT_NEAR(m.calendar_aging(Time::from_seconds(seconds), 0.5, 25.0), 4.14e-10 * seconds,
              1e-15);
}

TEST(DegradationModel, CycleAgingTermStructure) {
  const DegradationModel m;
  const RainflowCycle full{0.4, 0.6, 1.0};
  const RainflowCycle half{0.4, 0.6, 0.5};
  EXPECT_NEAR(m.cycle_aging_term(full, 25.0), 0.4 * 0.6 * m.params().k6, 1e-18);
  EXPECT_NEAR(m.cycle_aging_term(half, 25.0), 0.5 * m.cycle_aging_term(full, 25.0), 1e-18);
  // Deeper and higher-SoC cycles hurt more.
  EXPECT_GT(m.cycle_aging_term(RainflowCycle{0.8, 0.6, 1.0}, 25.0),
            m.cycle_aging_term(full, 25.0));
  EXPECT_GT(m.cycle_aging_term(RainflowCycle{0.4, 0.9, 1.0}, 25.0),
            m.cycle_aging_term(full, 25.0));
}

TEST(DegradationModel, NonlinearShape) {
  const DegradationModel m;
  EXPECT_DOUBLE_EQ(m.nonlinear(0.0), 0.0);
  // Monotone increasing, approaching 1.
  double prev = 0.0;
  for (double f : {0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 5.0}) {
    const double d = m.nonlinear(f);
    EXPECT_GT(d, prev);
    prev = d;
  }
  EXPECT_LT(m.nonlinear(10.0), 1.0);
  EXPECT_NEAR(m.nonlinear(20.0), 1.0, 1e-6);
  // Negative input clamps to fresh battery.
  EXPECT_DOUBLE_EQ(m.nonlinear(-1.0), 0.0);
}

TEST(DegradationModel, SeiCausesFastEarlyFade) {
  const DegradationModel m;
  // SEI film: the first 1% of linear aging costs much more capacity than
  // the same increment later on.
  const double early = m.nonlinear(0.01) - m.nonlinear(0.0);
  const double late = m.nonlinear(0.11) - m.nonlinear(0.10);
  EXPECT_GT(early, 3.0 * late);
}

/// Inverse of Eq. (4) by bisection: the linear sum that produces
/// degradation `d` in [0, 1). Eq. (4) is monotone in the linear sum.
[[nodiscard]] double linear_for(const DegradationModel& m, double d) {
  double lo = 0.0;
  double hi = 1.0;
  while (m.nonlinear(hi) < d) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (m.nonlinear(mid) < d) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

TEST(DegradationModel, LinearForInvertsNonlinear) {
  const DegradationModel m;
  for (double d : {0.01, 0.05, 0.1, 0.2, 0.5}) {
    const double f = linear_for(m, d);
    EXPECT_NEAR(m.nonlinear(f), d, 1e-9);
  }
}

TEST(DegradationModel, PaperHeadlineLifespansFromCalendarAging) {
  // Sanity-check the constants against the paper's Fig. 8: a battery held
  // near-full (phi ~ 0.9) at 25 C reaches 20% fade in roughly 8 years; one
  // capped at theta = 0.5 (phi ~ 0.45) lasts roughly 13-14 years.
  const DegradationModel m;
  const double f_eol = linear_for(m, 0.2);

  const double rate_full = m.calendar_aging(Time::from_days(365.0), 0.90, 25.0);
  const double years_full = f_eol / rate_full;
  EXPECT_GT(years_full, 6.5);
  EXPECT_LT(years_full, 9.5);

  const double rate_capped = m.calendar_aging(Time::from_days(365.0), 0.45, 25.0);
  const double years_capped = f_eol / rate_capped;
  EXPECT_GT(years_capped, 11.0);
  EXPECT_LT(years_capped, 16.0);

  // The improvement is in the paper's reported band (up to ~70%).
  const double improvement = years_capped / years_full - 1.0;
  EXPECT_GT(improvement, 0.35);
  EXPECT_LT(improvement, 0.85);
}

}  // namespace
}  // namespace blam
