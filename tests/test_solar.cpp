#include "energy/solar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

namespace blam {
namespace {

SolarTraceConfig small_config() {
  SolarTraceConfig c;
  c.peak = Power::from_milli_watts(10.0);
  c.seed = 7;
  return c;
}

/// Largest per-minute sample over one period, read through power_at.
double max_power(const SolarTrace& trace) {
  double max_w = 0.0;
  for (Time t = Time::zero(); t < trace.period(); t = t + Time::from_minutes(1.0)) {
    max_w = std::max(max_w, trace.power_at(t).watts());
  }
  return max_w;
}

TEST(SolarTrace, ValidatesConfig) {
  SolarTraceConfig c = small_config();
  c.peak = Power::zero();
  EXPECT_THROW(SolarTrace{c}, std::invalid_argument);
  c = small_config();
  c.winter_summer_ratio = 0.0;
  EXPECT_THROW(SolarTrace{c}, std::invalid_argument);
  c = small_config();
  c.min_day_hours = 20.0;
  c.max_day_hours = 10.0;
  EXPECT_THROW(SolarTrace{c}, std::invalid_argument);
}

TEST(SolarTrace, YearLongAtMinuteResolution) {
  const SolarTrace trace{small_config()};
  EXPECT_EQ(trace.period(), Time::from_days(365.0));
  // A step function with one sample per minute: constant inside a minute,
  // and the year holds 365 * 24 * 60 of them.
  int minutes = 0;
  for (Time t = Time::zero(); t < trace.period(); t = t + Time::from_minutes(1.0)) {
    const double w = trace.power_at(t).watts();
    ASSERT_EQ(trace.power_at(t + Time::from_seconds(59.0)).watts(), w) << "minute " << minutes;
    ++minutes;
  }
  EXPECT_EQ(minutes, 365 * 24 * 60);
  EXPECT_GT(max_power(trace), 0.0);
}

TEST(SolarTrace, NightIsDark) {
  const SolarTrace trace{small_config()};
  for (int day : {0, 100, 200, 300}) {
    // Local midnight-ish.
    const Time t = Time::from_days(day) + Time::from_hours(0.5);
    EXPECT_DOUBLE_EQ(trace.power_at(t).watts(), 0.0) << "day " << day;
  }
}

TEST(SolarTrace, MiddayGenerates) {
  const SolarTrace trace{small_config()};
  int sunny_days = 0;
  for (int day = 0; day < 365; ++day) {
    const Time noon = Time::from_days(day) + Time::from_hours(12.0);
    if (trace.power_at(noon).watts() > 0.0) ++sunny_days;
  }
  EXPECT_EQ(sunny_days, 365);
}

TEST(SolarTrace, PeakNearConfiguredPeak) {
  const SolarTrace trace{small_config()};
  const double peak = max_power(trace);
  EXPECT_GT(peak, 0.5 * 0.010);
  EXPECT_LT(peak, 2.0 * 0.010);  // intraday noise can exceed nominal a bit
}

TEST(SolarTrace, SummerBeatsWinter) {
  const SolarTrace trace{small_config()};
  // Compare total energy across a mid-summer and a mid-winter month.
  const Energy summer =
      trace.energy_between(Time::from_days(160.0), Time::from_days(190.0));
  const Energy winter = trace.energy_between(Time::from_days(0.0), Time::from_days(30.0));
  EXPECT_GT(summer.joules(), winter.joules() * 1.5);
}

TEST(SolarTrace, EnergyBetweenMatchesSampleSum) {
  const SolarTrace trace{small_config()};
  // Integrate one specific day by minute samples and compare with the O(1)
  // cumulative query.
  const Time start = Time::from_days(120.0);
  double manual = 0.0;
  for (int m = 0; m < 24 * 60; ++m) {
    manual += trace.power_at(start + Time::from_minutes(m)).watts() * 60.0;
  }
  const Energy fast = trace.energy_between(start, start + Time::from_days(1.0));
  EXPECT_NEAR(fast.joules(), manual, manual * 1e-9 + 1e-12);
}

TEST(SolarTrace, EnergyIsAdditive) {
  const SolarTrace trace{small_config()};
  const Time a = Time::from_days(10.0);
  const Time b = Time::from_days(10.5);
  const Time c = Time::from_days(11.25);
  const double whole = trace.energy_between(a, c).joules();
  const double split = trace.energy_between(a, b).joules() + trace.energy_between(b, c).joules();
  EXPECT_NEAR(whole, split, 1e-9);
}

TEST(SolarTrace, SubMinuteIntervalsInterpolate) {
  const SolarTrace trace{small_config()};
  const Time noon = Time::from_days(180.0) + Time::from_hours(12.0);
  const Energy half_min = trace.energy_between(noon, noon + Time::from_seconds(30.0));
  const double expected = trace.power_at(noon).watts() * 30.0;
  EXPECT_NEAR(half_min.joules(), expected, expected * 0.01 + 1e-12);
}

TEST(SolarTrace, WrapsAcrossYears) {
  const SolarTrace trace{small_config()};
  const Time one_year = trace.period();
  const Time t = Time::from_days(42.0) + Time::from_hours(12.0);
  EXPECT_DOUBLE_EQ(trace.power_at(t).watts(), trace.power_at(t + one_year).watts());
  EXPECT_NEAR(trace.energy_between(Time::zero(), one_year).joules(),
              trace.energy_between(one_year, one_year * 2).joules(), 1e-6);
  // A 2.5-year window = 2 * year + half-year.
  const double long_window =
      trace.energy_between(Time::zero(), one_year * 2 + Time::from_days(182.0)).joules();
  const double composed = 2.0 * trace.energy_between(Time::zero(), one_year).joules() +
                          trace.energy_between(Time::zero(), Time::from_days(182.0)).joules();
  EXPECT_NEAR(long_window, composed, composed * 1e-12 + 1e-9);
}

TEST(SolarTrace, RejectsReversedInterval) {
  const SolarTrace trace{small_config()};
  EXPECT_THROW((void)trace.energy_between(Time::from_days(2.0), Time::from_days(1.0)),
               std::invalid_argument);
}

TEST(SolarTrace, SameSeedSameTrace) {
  const SolarTrace a{small_config()};
  const SolarTrace b{small_config()};
  for (int d = 0; d < 365; d += 30) {
    const Time noon = Time::from_days(d) + Time::from_hours(12.0);
    EXPECT_DOUBLE_EQ(a.power_at(noon).watts(), b.power_at(noon).watts());
  }
}

TEST(Harvester, ScalesAndJitters) {
  const SolarTrace trace{small_config()};
  Harvester h{trace, 2.0};
  const Time noon = Time::from_days(180.0) + Time::from_hours(12.0);
  EXPECT_DOUBLE_EQ(h.energy_between(noon, noon + Time::from_minutes(5.0)).joules(),
                   trace.energy_between(noon, noon + Time::from_minutes(5.0)).joules() * 2.0);

  Rng rng{3};
  h.resample_jitter(rng, 0.3);
  EXPECT_GE(h.jitter(), 0.7);
  EXPECT_LE(h.jitter(), 1.0);
  EXPECT_NEAR(h.energy_between(noon, noon + Time::from_minutes(5.0)).joules(),
              trace.energy_between(noon, noon + Time::from_minutes(5.0)).joules() * 2.0 *
                  h.jitter(),
              1e-12);
}

TEST(Harvester, RejectsNonPositiveScale) {
  const SolarTrace trace{small_config()};
  EXPECT_THROW(Harvester(trace, 0.0), std::invalid_argument);
}

// The node's per-period forecast is its harvester's batched window sweep
// (the forecaster of Kraemer et al. is assumed accurate within a window),
// so these check Harvester::energy_windows, panel scale and cloud jitter
// included, against the per-interval energy_between the energy accounting
// integrates.
class ForecasterTest : public ::testing::Test {
 protected:
  ForecasterTest() : trace_{make_config()}, harvester_{trace_, 1.3} {
    Rng rng{11};
    harvester_.resample_jitter(rng);
  }

  static SolarTraceConfig make_config() {
    SolarTraceConfig c;
    c.peak = Power::from_milli_watts(20.0);
    c.seed = 5;
    return c;
  }

  [[nodiscard]] std::vector<Energy> forecast(Time start, Time window, int n) const {
    std::vector<Energy> out(static_cast<std::size_t>(n));
    harvester_.energy_windows(start, window, n, out.data());
    return out;
  }

  SolarTrace trace_;
  Harvester harvester_;
};

TEST_F(ForecasterTest, PerfectForecastMatchesTruth) {
  const Time noon = Time::from_days(150.0) + Time::from_hours(11.0);
  const auto windows = forecast(noon, Time::from_minutes(1.0), 30);
  for (int i = 0; i < 30; ++i) {
    const Time t0 = noon + Time::from_minutes(i);
    const Time t1 = noon + Time::from_minutes(i + 1);
    EXPECT_DOUBLE_EQ(windows[static_cast<std::size_t>(i)].joules(),
                     harvester_.energy_between(t0, t1).joules());
  }
}

TEST_F(ForecasterTest, NightForecastIsZero) {
  const Time midnight = Time::from_days(150.0);
  for (const Energy& e : forecast(midnight, Time::from_minutes(1.0), 10)) {
    EXPECT_DOUBLE_EQ(e.joules(), 0.0);
  }
}

TEST_F(ForecasterTest, ValidatesArguments) {
  Energy out[1];
  EXPECT_THROW(harvester_.energy_windows(Time::zero(), Time::zero(), 1, out),
               std::invalid_argument);
  EXPECT_THROW(harvester_.energy_windows(Time::zero(), Time::from_minutes(-1.0), 1, out),
               std::invalid_argument);
}

TEST_F(ForecasterTest, ZeroWindowsGivesEmpty) {
  Energy out[1] = {Energy::from_joules(-1.0)};
  harvester_.energy_windows(Time::zero(), Time::from_minutes(1.0), 0, out);
  EXPECT_EQ(out[0].joules(), -1.0);  // nothing written
}

TEST_F(ForecasterTest, BatchedForecastMatchesSequentialExactly) {
  // The batched sweep must reproduce the per-window energy_between loop bit
  // for bit, scale and jitter included, across the year wrap too.
  ASSERT_NE(harvester_.jitter(), 1.0);
  const Time window = Time::from_minutes(2.0);
  for (const double day : {0.0, 120.5, 364.9}) {
    const Time start = Time::from_days(day);
    const auto out = forecast(start, window, 48);
    for (int i = 0; i < 48; ++i) {
      const Energy one = harvester_.energy_between(start + window * std::int64_t{i},
                                                   start + window * std::int64_t{i + 1});
      ASSERT_EQ(out[static_cast<std::size_t>(i)].joules(), one.joules())
          << "day=" << day << " window " << i;
    }
  }
}

TEST_F(ForecasterTest, WindowsPartitionThePeriod) {
  const Time start = Time::from_days(100.0) + Time::from_hours(10.0);
  double sum = 0.0;
  for (const Energy& e : forecast(start, Time::from_minutes(1.0), 40)) sum += e.joules();
  EXPECT_NEAR(sum, harvester_.energy_between(start, start + Time::from_minutes(40.0)).joules(),
              1e-9);
}

TEST(SolarTrace, BatchedWindowEnergiesAreBitIdentical) {
  // The batched walk reuses each window boundary's cumulative value; the
  // contract is EXACT equality with per-window energy_between, including
  // windows straddling and landing exactly on the year wrap.
  const SolarTrace trace{small_config()};
  const Time window = Time::from_minutes(7.5);
  const std::vector<Time> starts = {
      Time::zero(),
      Time::from_days(100.0) + Time::from_hours(9.0) + Time::from_seconds(13.0),
      trace.period() - Time::from_minutes(30.0),        // sweep crosses the wrap
      trace.period() - window * std::int64_t{4},        // boundary lands on the wrap
      trace.period() * std::int64_t{3} - Time::from_hours(1.0),  // later years
  };
  std::vector<Energy> batched(64);
  for (const Time start : starts) {
    trace.energy_windows(start, window, 64, batched.data());
    for (int i = 0; i < 64; ++i) {
      const Time t0 = start + window * std::int64_t{i};
      const Time t1 = start + window * std::int64_t{i + 1};
      ASSERT_EQ(batched[static_cast<std::size_t>(i)].joules(),
                trace.energy_between(t0, t1).joules())
          << "start=" << start.seconds() << "s window " << i;
    }
  }
}

TEST(SolarTrace, BatchedWindowsLongerThanPeriod) {
  const SolarTrace trace{small_config()};
  const Time window = trace.period() + Time::from_hours(5.0);
  std::vector<Energy> batched(3);
  const Time start = Time::from_days(2.0);
  trace.energy_windows(start, window, 3, batched.data());
  for (int i = 0; i < 3; ++i) {
    const Time t0 = start + window * std::int64_t{i};
    const Time t1 = start + window * std::int64_t{i + 1};
    EXPECT_EQ(batched[static_cast<std::size_t>(i)].joules(),
              trace.energy_between(t0, t1).joules());
  }
}

TEST(SolarTrace, BatchedWindowsRejectNonPositiveWindow) {
  const SolarTrace trace{small_config()};
  Energy out[1];
  EXPECT_THROW(trace.energy_windows(Time::zero(), Time::zero(), 1, out), std::invalid_argument);
}


// The year is synthesized on demand, day by day. These compare bit patterns
// against a trace whose days were first reached in day order, so a fill
// that skipped, repeated or reordered a day's draws shows up as a changed
// sample.
std::uint64_t bits(Energy e) { return std::bit_cast<std::uint64_t>(e.joules()); }
std::uint64_t bits(Power p) { return std::bit_cast<std::uint64_t>(p.watts()); }

/// A trace whose days were first reached in day order.
class DayOrderReference {
 public:
  DayOrderReference() : trace_{small_config()} {
    for (int day = 0; day < 365; ++day) (void)trace_.power_at(Time::from_days(day));
  }

  [[nodiscard]] const SolarTrace& trace() const { return trace_; }

  /// Every minute's sample and the year's total, bit for bit.
  void expect_same_year(const SolarTrace& trace) const {
    for (Time t = Time::zero(); t < trace.period(); t = t + Time::from_minutes(1.0)) {
      ASSERT_EQ(bits(trace.power_at(t)), bits(trace_.power_at(t))) << "t=" << t.seconds();
    }
    ASSERT_EQ(bits(trace.energy_between(Time::zero(), trace.period())),
              bits(trace_.energy_between(Time::zero(), trace.period())));
  }

 private:
  SolarTrace trace_;
};

TEST(SolarTrace, OnDemandFillIsOrderFree) {
  const DayOrderReference ref;
  const SolarTrace& reference = ref.trace();
  const Time year = reference.period();
  const Time day = Time::from_days(1.0);
  const Time noon = Time::from_hours(12.0);

  {
    // Day 300 first, then day 0.
    const SolarTrace trace{small_config()};
    EXPECT_EQ(bits(trace.power_at(day * 300 + noon)), bits(reference.power_at(day * 300 + noon)));
    EXPECT_EQ(bits(trace.energy_between(Time::zero(), noon)),
              bits(reference.energy_between(Time::zero(), noon)));
    ref.expect_same_year(trace);
  }
  // Each query kind as the first touch of a fresh trace.
  const std::vector<std::pair<Time, Time>> spans = {
      {day * 364 + noon, year + noon},                       // across the year end
      {day * 364 + noon, year},                              // ends on the year end
      {day * 5, day * 5 + year + Time::from_hours(3.0)},     // longer than a year
      {day * 200, day * 200 + year * std::int64_t{2}},       // whole years only
      {year * std::int64_t{3} + day * 10, year * std::int64_t{3} + day * 11},  // later year
  };
  for (const auto& [t0, t1] : spans) {
    const SolarTrace trace{small_config()};
    ASSERT_EQ(bits(trace.energy_between(t0, t1)), bits(reference.energy_between(t0, t1)))
        << "span [" << t0.seconds() << ", " << t1.seconds() << "] s";
    ref.expect_same_year(trace);
  }
  // energy_windows as the first touch: short sweeps, sweeps straddling or
  // landing on the wrap, and windows longer than a year.
  struct Sweep {
    Time start;
    Time window;
    int n;
  };
  const std::vector<Sweep> sweeps = {
      {day * 300 + noon, Time::from_minutes(7.5), 48},
      {year - Time::from_hours(2.0), Time::from_minutes(7.5), 48},
      {year - Time::from_minutes(30.0), Time::from_minutes(7.5), 4},
      {day * 40, year + Time::from_hours(5.0), 3},
  };
  for (const Sweep& sweep : sweeps) {
    const SolarTrace trace{small_config()};
    std::vector<Energy> got(static_cast<std::size_t>(sweep.n));
    std::vector<Energy> want(got.size());
    trace.energy_windows(sweep.start, sweep.window, sweep.n, got.data());
    reference.energy_windows(sweep.start, sweep.window, sweep.n, want.data());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(bits(got[i]), bits(want[i])) << "start=" << sweep.start.seconds() << " i=" << i;
    }
    ref.expect_same_year(trace);
  }
}

TEST(SolarTrace, ConcurrentFirstTouch) {
  // Four threads first-touch one shared trace, each walking the year in its
  // own day order: ascending, adjacent days swapped, even days before odd
  // ones, and five-day blocks walked backwards. The walks advance side by side, so
  // short queries read the trace while other threads fill the next days and
  // the last one; each walk ends in queries that need the whole year.
  const DayOrderReference ref;
  const SolarTrace& reference = ref.trace();
  const SolarTrace trace{small_config()};
  std::vector<std::vector<int>> orders(4);
  for (int d = 0; d < 365; ++d) {
    orders[0].push_back(d);
    orders[1].push_back(d % 2 == 0 ? std::min(d + 1, 364) : d - 1);
    orders[2].push_back(d < 183 ? 2 * d : 2 * (d - 183) + 1);
    orders[3].push_back(d / 5 * 5 + 4 - d % 5);
  }
  const Time day = Time::from_days(1.0);
  const auto queries = [&](const SolarTrace& t, const std::vector<int>& order) {
    std::vector<Energy> out;
    Energy window[4];
    for (const int d : order) {
      const Time t0 = day * d + Time::from_hours(6.0);
      out.push_back(t.energy_between(t0, t0 + Time::from_hours(12.0)));
      t.energy_windows(t0, Time::from_hours(2.0), 4, window);
      out.insert(out.end(), window, window + 4);
    }
    out.push_back(t.energy_between(day * order.front(), day * order.front() + t.period()));
    t.energy_windows(t.period() - Time::from_hours(3.0), Time::from_hours(2.0), 4, window);
    out.insert(out.end(), window, window + 4);
    return out;
  };

  std::vector<std::vector<Energy>> got(orders.size());
  std::latch start{static_cast<std::ptrdiff_t>(orders.size())};
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < orders.size(); ++k) {
    threads.emplace_back([&, k] {
      start.arrive_and_wait();
      got[k] = queries(trace, orders[k]);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t k = 0; k < orders.size(); ++k) {
    const std::vector<Energy> want = queries(reference, orders[k]);
    ASSERT_EQ(got[k].size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(bits(got[k][i]), bits(want[i])) << "thread " << k << " query " << i;
    }
  }
  ref.expect_same_year(trace);
}

}  // namespace
}  // namespace blam
