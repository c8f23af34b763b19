#include "common/stats.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace blam {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSingleStream) {
  Rng rng{11};
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 2.0);
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.mean(), 1.0);
}

TEST(QuantileSampler, ExactQuantiles) {
  QuantileSampler q;
  for (int i = 1; i <= 100; ++i) q.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
  EXPECT_NEAR(q.median(), 50.5, 1e-12);
  EXPECT_NEAR(q.quantile(0.25), 25.75, 1e-12);
  EXPECT_DOUBLE_EQ(q.mean(), 50.5);
}

TEST(QuantileSampler, EmptyIsZero) {
  QuantileSampler q;
  EXPECT_EQ(q.quantile(0.5), 0.0);
  EXPECT_EQ(q.mean(), 0.0);
}

TEST(QuantileSampler, AddAfterQuantileStaysCorrect) {
  QuantileSampler q;
  q.add(3.0);
  q.add(1.0);
  EXPECT_DOUBLE_EQ(q.median(), 2.0);
  q.add(2.0);  // resort needed
  EXPECT_DOUBLE_EQ(q.median(), 2.0);
  q.add(100.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
}

TEST(BoxSummary, OutlierCount) {
  std::vector<double> values{1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 50.0};
  const BoxSummary box = summarize_box(values);
  EXPECT_EQ(box.min, 1.0);
  EXPECT_EQ(box.max, 50.0);
  EXPECT_EQ(box.outliers, 1u);  // the 50.0
  EXPECT_GT(box.q3, box.q1);
}

TEST(BoxSummary, EmptyInput) {
  const BoxSummary box = summarize_box({});
  EXPECT_EQ(box.outliers, 0u);
  EXPECT_EQ(box.mean, 0.0);
}

}  // namespace
}  // namespace blam
