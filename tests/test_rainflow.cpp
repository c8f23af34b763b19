#include "degradation/rainflow.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace blam {
namespace {

struct Collector {
  std::vector<RainflowCycle> full;
  RainflowCounter counter{[this](const RainflowCycle& c) { full.push_back(c); }};

  std::vector<RainflowCycle> residual() const {
    std::vector<RainflowCycle> out;
    counter.for_each_residual([&out](const RainflowCycle& c) { out.push_back(c); });
    return out;
  }

  double total_weighted_range() const {
    double sum = 0.0;
    for (const auto& c : full) sum += c.weight * c.range;
    for (const auto& c : residual()) sum += c.weight * c.range;
    return sum;
  }
};

TEST(Rainflow, RequiresCallback) {
  EXPECT_THROW(RainflowCounter(nullptr), std::invalid_argument);
}

TEST(Rainflow, MonotoneTraceHasNoFullCycles) {
  Collector c;
  for (double v : {0.0, 0.1, 0.2, 0.5, 0.9}) c.counter.push(v);
  EXPECT_TRUE(c.full.empty());
  const auto residual = c.residual();
  ASSERT_EQ(residual.size(), 1u);  // one half cycle 0 -> 0.9
  EXPECT_NEAR(residual[0].range, 0.9, 1e-12);
  EXPECT_NEAR(residual[0].mean, 0.45, 1e-12);
  EXPECT_DOUBLE_EQ(residual[0].weight, 0.5);
}

TEST(Rainflow, PlateausAreAbsorbed) {
  Collector c;
  for (double v : {0.0, 0.5, 0.5, 0.5, 1.0}) c.counter.push(v);
  EXPECT_TRUE(c.full.empty());
  EXPECT_EQ(c.residual().size(), 1u);
}

TEST(Rainflow, SmallInnerCycleClosesInsideLargerSwing) {
  // 0 -> 1 -> 0.4 -> 0.6 -> 0 -> (0.8): the 0.4/0.6 pair is a full inner
  // cycle; it closes once the final 0 is CONFIRMED as a turning point by
  // the direction change toward 0.8.
  Collector c;
  for (double v : {0.0, 1.0, 0.4, 0.6, 0.0, 0.8}) c.counter.push(v);
  ASSERT_EQ(c.full.size(), 1u);
  EXPECT_NEAR(c.full[0].range, 0.2, 1e-12);
  EXPECT_NEAR(c.full[0].mean, 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(c.full[0].weight, 1.0);
}

TEST(Rainflow, RepeatedIdenticalSwingsCloseEachTime) {
  // Sawtooth 0 -> 1 -> 0 -> 1 -> ... every descent+ascent pair closes one
  // full cycle of range 1.
  Collector c;
  c.counter.push(0.0);
  for (int i = 0; i < 10; ++i) {
    c.counter.push(1.0);
    c.counter.push(0.0);
  }
  EXPECT_EQ(c.counter.full_cycles(), 9u);
  for (const auto& cycle : c.full) {
    EXPECT_NEAR(cycle.range, 1.0, 1e-12);
    EXPECT_NEAR(cycle.mean, 0.5, 1e-12);
  }
}

TEST(Rainflow, AstmReferenceSequence) {
  // Classic ASTM E1049 example: peaks/valleys -2,1,-3,5,-1,3,-4,4,-2,
  // scaled into [0,1] SoC by (x+4)/9. Online four-point counting closes
  // exactly one full cycle before the trace ends: (-1,3), range 4, when -4
  // arrives (|3-(-1)|=4 <= |5-(-1)|=6 and <= |3-(-4)|=7).
  const std::vector<double> seq{-2, 1, -3, 5, -1, 3, -4, 4, -2};
  Collector c;
  for (double v : seq) c.counter.push((v + 4.0) / 9.0);
  ASSERT_EQ(c.full.size(), 1u);
  EXPECT_NEAR(c.full[0].range, 4.0 / 9.0, 1e-12);
  EXPECT_NEAR(c.full[0].mean, 5.0 / 9.0, 1e-12);  // midpoint of -1 and 3
  // Residual: confirmed stack -2,1,-3,5,-4,4 plus the provisional final -2
  // = 6 half cycles.
  EXPECT_EQ(c.residual().size(), 6u);
}

TEST(Rainflow, ResidualIsNonDestructive) {
  Collector c;
  for (double v : {0.0, 1.0, 0.2, 0.8}) c.counter.push(v);
  const auto first = c.residual();
  const auto second = c.residual();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i].range, second[i].range);
  }
  // Continuing the stream after residual queries still works.
  c.counter.push(0.0);
  c.counter.push(1.0);
  EXPECT_GE(c.counter.full_cycles(), 1u);
}

TEST(Rainflow, WeightedRangeConservationProperty) {
  // Sum of weight*range over (full cycles + residual halves) must equal
  // half the total variation of the turning-point sequence - a standard
  // rainflow invariant. Check on random walks.
  Rng rng{42};
  for (int trial = 0; trial < 20; ++trial) {
    Collector c;
    double soc = 0.5;
    double prev = soc;
    double total_variation = 0.0;
    c.counter.push(soc);
    for (int i = 0; i < 500; ++i) {
      soc = std::min(1.0, std::max(0.0, soc + rng.uniform(-0.2, 0.2)));
      total_variation += std::abs(soc - prev);
      prev = soc;
      c.counter.push(soc);
    }
    EXPECT_NEAR(c.total_weighted_range(), 0.5 * total_variation, 1e-9) << "trial " << trial;
  }
}

TEST(Rainflow, ResidualStackStaysSmallOnLongStreams) {
  Collector c;
  Rng rng{7};
  double soc = 0.5;
  c.counter.push(soc);
  for (int i = 0; i < 100000; ++i) {
    soc = std::min(1.0, std::max(0.0, soc + rng.uniform(-0.1, 0.1)));
    c.counter.push(soc);
  }
  // The residual is a monotone envelope: it cannot exceed a few dozen
  // entries even after 100k samples.
  EXPECT_LT(c.counter.state().stack.size(), 64u);
  EXPECT_GT(c.counter.full_cycles(), 1000u);
}

TEST(Rainflow, MeanIsMidpointOfCycleExtremes) {
  Collector c;
  // Trailing 0.9 confirms the final 0.2 so the inner (0.5, 0.7) closes.
  for (double v : {0.2, 0.9, 0.5, 0.7, 0.2, 0.9}) c.counter.push(v);
  ASSERT_EQ(c.full.size(), 1u);
  EXPECT_NEAR(c.full[0].mean, 0.6, 1e-12);  // (0.5 + 0.7) / 2
}

}  // namespace
}  // namespace blam
