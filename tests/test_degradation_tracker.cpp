#include "degradation/tracker.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"

namespace blam {
namespace {

class TrackerTest : public ::testing::Test {
 protected:
  DegradationModel model_{};
};

TEST_F(TrackerTest, EmptyTrackerIsFresh) {
  DegradationTracker t{model_, 25.0};
  EXPECT_DOUBLE_EQ(t.mean_soc(), 0.0);
  EXPECT_DOUBLE_EQ(t.cycle_linear(), 0.0);
  EXPECT_DOUBLE_EQ(t.calendar_linear(Time::from_days(1.0)), 0.0);
  EXPECT_DOUBLE_EQ(t.degradation(Time::from_days(1.0)), 0.0);
}

TEST_F(TrackerTest, RejectsTimeTravel) {
  DegradationTracker t{model_, 25.0};
  t.record(Time::from_seconds(10.0), 0.5);
  EXPECT_THROW(t.record(Time::from_seconds(5.0), 0.6), std::invalid_argument);
}

TEST_F(TrackerTest, MeanSocIsTimeWeighted) {
  DegradationTracker t{model_, 25.0};
  t.record(Time::zero(), 1.0);
  t.record(Time::from_hours(1.0), 1.0);   // 1 hour at 1.0
  t.record(Time::from_hours(1.0), 0.0);   // instantaneous drop
  t.record(Time::from_hours(4.0), 0.0);   // 3 hours at 0.0
  EXPECT_NEAR(t.mean_soc(), 0.25, 1e-12);
}

TEST_F(TrackerTest, TrapezoidalIntegration) {
  DegradationTracker t{model_, 25.0};
  t.record(Time::zero(), 0.0);
  t.record(Time::from_hours(2.0), 1.0);  // linear ramp: mean 0.5
  EXPECT_NEAR(t.mean_soc(), 0.5, 1e-12);
}

TEST_F(TrackerTest, CalendarUsesMeanSocAndExtendsToNow) {
  DegradationTracker t{model_, 25.0};
  t.record(Time::zero(), 0.8);
  t.record(Time::from_days(10.0), 0.8);
  const double at_last = t.calendar_linear(Time::from_days(10.0));
  EXPECT_NEAR(at_last, model_.calendar_aging(Time::from_days(10.0), 0.8, 25.0), 1e-15);
  // Querying later extends the trace at the last SoC.
  const double later = t.calendar_linear(Time::from_days(20.0));
  EXPECT_NEAR(later, model_.calendar_aging(Time::from_days(20.0), 0.8, 25.0), 1e-15);
}

TEST_F(TrackerTest, CyclesAccumulate) {
  DegradationTracker t{model_, 25.0};
  Time now = Time::zero();
  t.record(now, 0.2);
  for (int i = 0; i < 10; ++i) {
    now += Time::from_hours(1.0);
    t.record(now, 0.8);
    now += Time::from_hours(1.0);
    t.record(now, 0.2);
  }
  EXPECT_GE(t.full_cycles(), 9u);
  // Each full cycle: range 0.6, mean 0.5, priced by the model's Eq. (2)
  // term that the tracker inlines.
  const double expected_per_cycle = model_.cycle_aging_term(RainflowCycle{0.6, 0.5, 1.0}, 25.0);
  EXPECT_NEAR(t.cycle_linear(), (t.full_cycles() + /*residual halves*/ 1.0) * expected_per_cycle,
              expected_per_cycle);
}

TEST_F(TrackerTest, DegradationCombinesBothTerms) {
  DegradationTracker t{model_, 25.0};
  Time now = Time::zero();
  t.record(now, 0.3);
  for (int i = 0; i < 5; ++i) {
    now += Time::from_days(1.0);
    t.record(now, 0.7);
    now += Time::from_days(1.0);
    t.record(now, 0.3);
  }
  const double d = t.degradation(now);
  EXPECT_NEAR(d, model_.nonlinear(t.calendar_linear(now) + t.cycle_linear()), 1e-15);
  EXPECT_GT(d, 0.0);
}

TEST_F(TrackerTest, HigherSocAgesFaster) {
  DegradationTracker high{model_, 25.0};
  DegradationTracker low{model_, 25.0};
  high.record(Time::zero(), 0.95);
  low.record(Time::zero(), 0.45);
  const Time year = Time::from_days(365.0);
  high.record(year, 0.95);
  low.record(year, 0.45);
  EXPECT_GT(high.degradation(year), low.degradation(year));
}

TEST_F(TrackerTest, HotterBatteryAgesFaster) {
  DegradationTracker hot{model_, 45.0};
  DegradationTracker cool{model_, 25.0};
  for (auto* t : {&hot, &cool}) {
    t->record(Time::zero(), 0.5);
    t->record(Time::from_days(365.0), 0.5);
  }
  EXPECT_GT(hot.degradation(Time::from_days(365.0)), cool.degradation(Time::from_days(365.0)));
}

TEST_F(TrackerTest, DeepCyclesAgeMoreThanShallow) {
  DegradationTracker deep{model_, 25.0};
  DegradationTracker shallow{model_, 25.0};
  Time now = Time::zero();
  deep.record(now, 0.1);
  shallow.record(now, 0.45);
  for (int i = 0; i < 50; ++i) {
    now += Time::from_hours(1.0);
    deep.record(now, 0.9);      // range 0.8 around mean 0.5
    shallow.record(now, 0.55);  // range 0.1 around mean 0.5
    now += Time::from_hours(1.0);
    deep.record(now, 0.1);
    shallow.record(now, 0.45);
  }
  EXPECT_GT(deep.cycle_linear(), shallow.cycle_linear() * 5.0);
}

TEST_F(TrackerTest, IntermediateQueriesAreMonotone) {
  // The gateway queries degradation daily; the estimate must never
  // decrease as more trace arrives.
  DegradationTracker t{model_, 25.0};
  Rng rng{13};
  Time now = Time::zero();
  double soc = 0.5;
  t.record(now, soc);
  double prev_deg = 0.0;
  for (int day = 1; day <= 30; ++day) {
    for (int step = 0; step < 8; ++step) {
      now += Time::from_hours(3.0);
      soc = std::min(1.0, std::max(0.0, soc + rng.uniform(-0.2, 0.2)));
      t.record(now, soc);
    }
    const double deg = t.degradation(now);
    EXPECT_GE(deg, prev_deg) << "day " << day;
    prev_deg = deg;
  }
}

}  // namespace
}  // namespace blam
