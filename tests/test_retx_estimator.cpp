#include "forecast/retx_estimator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace blam {
namespace {

TEST(RetxEstimator, ValidatesConstruction) {
  EXPECT_THROW(RetxEstimator(0), std::invalid_argument);
  EXPECT_THROW(RetxEstimator(4, -1), std::invalid_argument);
}

TEST(RetxEstimator, OptimisticPriorForUnseenWindows) {
  RetxEstimator e{4};
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_DOUBLE_EQ(e.expected_transmissions(w), 1.0);
    EXPECT_DOUBLE_EQ(e.probability_at_most(0, w), 1.0);
    EXPECT_EQ(e.selections(w), 0u);
  }
}

TEST(RetxEstimator, Equation14Cdf) {
  RetxEstimator e{2};
  // Window 0: observed retx counts {0, 0, 1, 3}.
  e.record(0, 0);
  e.record(0, 0);
  e.record(0, 1);
  e.record(0, 3);
  EXPECT_DOUBLE_EQ(e.probability_at_most(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(e.probability_at_most(1, 0), 0.75);
  EXPECT_DOUBLE_EQ(e.probability_at_most(2, 0), 0.75);
  EXPECT_DOUBLE_EQ(e.probability_at_most(3, 0), 1.0);
  EXPECT_DOUBLE_EQ(e.probability_at_most(7, 0), 1.0);
  EXPECT_DOUBLE_EQ(e.probability_at_most(-1, 0), 0.0);
}

TEST(RetxEstimator, ExpectedTransmissions) {
  RetxEstimator e{2};
  e.record(1, 0);
  e.record(1, 2);
  e.record(1, 4);
  EXPECT_DOUBLE_EQ(e.expected_transmissions(1), 1.0 + 2.0);
  EXPECT_EQ(e.selections(1), 3u);
}

TEST(RetxEstimator, ClampsAboveMaxRetx) {
  RetxEstimator e{1, 7};
  e.record(0, 100);
  EXPECT_DOUBLE_EQ(e.expected_transmissions(0), 8.0);
  EXPECT_DOUBLE_EQ(e.probability_at_most(7, 0), 1.0);
  EXPECT_DOUBLE_EQ(e.probability_at_most(6, 0), 0.0);
}

TEST(RetxEstimator, WindowsAreIndependent) {
  RetxEstimator e{3};
  e.record(0, 5);
  EXPECT_DOUBLE_EQ(e.expected_transmissions(0), 6.0);
  EXPECT_DOUBLE_EQ(e.expected_transmissions(1), 1.0);
  EXPECT_DOUBLE_EQ(e.expected_transmissions(2), 1.0);
}

TEST(RetxEstimator, OutOfRangeThrows) {
  RetxEstimator e{2};
  EXPECT_THROW(e.record(2, 0), std::out_of_range);
  EXPECT_THROW((void)e.expected_transmissions(5), std::out_of_range);
  EXPECT_THROW((void)e.probability_at_most(0, 5), std::out_of_range);
  EXPECT_THROW((void)e.selections(9), std::out_of_range);
}

TEST(RetxEstimator, CrowdedWindowCostsMore) {
  // The MAC-facing property: a window with a collision history must show a
  // higher expected transmission count than a clean one.
  RetxEstimator e{2};
  for (int i = 0; i < 20; ++i) {
    e.record(0, 4);  // crowded
    e.record(1, 0);  // clean
  }
  EXPECT_GT(e.expected_transmissions(0), e.expected_transmissions(1) * 3.0);
}

TEST(RetxEstimator, FlatLayoutRoundTrip) {
  // Every window's histogram reads back through the accessor the checkpoint
  // writes, and restore_count installs its nonzero buckets into a fresh
  // estimator, which re-derives the totals and answers every query
  // identically.
  RetxEstimator e{5, 3};
  const int retx[] = {0, 1, 3, 2, 0, 7, 1, 1};
  for (int i = 0; i < 40; ++i) e.record(static_cast<std::size_t>(i % 5), retx[i % 8]);

  RetxEstimator restored{5, 3};
  for (std::size_t t = 0; t < e.max_windows(); ++t) {
    ASSERT_EQ(e.retx_counts(t).size(), 4u);
    for (std::size_t r = 0; r < 4; ++r) {
      const std::uint64_t count = e.retx_counts(t)[r];
      if (count != 0) {
        ASSERT_TRUE(restored.restore_count(t, r, count));
      }
    }
  }
  for (std::size_t t = 0; t < e.max_windows(); ++t) {
    EXPECT_EQ(restored.selections(t), e.selections(t));
    EXPECT_EQ(restored.retx_sum(t), e.retx_sum(t));
    EXPECT_EQ(restored.expected_transmissions(t), e.expected_transmissions(t));
    for (int r = -1; r <= 4; ++r) {
      EXPECT_EQ(restored.probability_at_most(r, t), e.probability_at_most(r, t));
    }
  }
  // Windows do not alias: window 1's row is its own.
  RetxEstimator lone{3, 3};
  lone.record(1, 2);
  EXPECT_EQ(lone.retx_counts(0)[2], 0u);
  EXPECT_EQ(lone.retx_counts(1)[2], 1u);
  EXPECT_EQ(lone.retx_counts(2)[2], 0u);
}

TEST(RetxEstimator, ClampedRecordsLandInTheLastBucket) {
  RetxEstimator e{2, 3};
  e.record(1, 9);
  e.record(1, -4);
  EXPECT_EQ(e.retx_counts(1)[3], 1u);
  EXPECT_EQ(e.retx_counts(1)[0], 1u);
  EXPECT_EQ(e.retx_sum(1), 3u);
  EXPECT_EQ(e.selections(1), 2u);
  EXPECT_EQ(e.selections(0), 0u);
}

TEST(RetxEstimator, NewAccessorsRejectOutOfRange) {
  RetxEstimator e{2};
  EXPECT_THROW((void)e.retx_sum(2), std::out_of_range);
  EXPECT_THROW((void)e.retx_counts(2), std::out_of_range);
  EXPECT_THROW((void)e.restore_count(2, 0, 1), std::out_of_range);
}

TEST(RetxEstimator, ResetAfterRecordRestoresThePrior) {
  RetxEstimator e{3, 7};
  e.record(0, 2);
  e.record(2, 7);
  e.reset();
  EXPECT_EQ(e.max_windows(), 3u);
  EXPECT_EQ(e.max_retx(), 7);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(e.selections(t), 0u);
    EXPECT_EQ(e.retx_sum(t), 0u);
    EXPECT_DOUBLE_EQ(e.expected_transmissions(t), 1.0);
    for (const std::uint64_t count : e.retx_counts(t)) EXPECT_EQ(count, 0u);
  }
  e.record(2, 1);  // still usable afterwards
  EXPECT_DOUBLE_EQ(e.expected_transmissions(2), 2.0);
}

TEST(RetxEstimator, RestoreCountRejectsBadBucketsAndOverflow) {
  RetxEstimator e{2, 3};
  e.record(0, 1);
  // Four selections costing 1 + 3 = 4 retransmissions.
  EXPECT_TRUE(e.restore_count(1, 0, 2));
  EXPECT_TRUE(e.restore_count(1, 1, 1));
  EXPECT_TRUE(e.restore_count(1, 3, 1));
  EXPECT_EQ(e.selections(1), 4u);
  EXPECT_EQ(e.retx_sum(1), 4u);
  // A bucket past max_retx; a bucket that already holds a count.
  EXPECT_FALSE(e.restore_count(0, 4, 1));
  EXPECT_FALSE(e.restore_count(0, 1, 5));
  // Counts whose weighted sum or selection total wraps around 2^64 cannot
  // be installed.
  constexpr std::uint64_t kHuge = std::numeric_limits<std::uint64_t>::max() / 2 + 1;
  EXPECT_FALSE(e.restore_count(0, 2, kHuge));
  EXPECT_FALSE(e.restore_count(0, 0, std::numeric_limits<std::uint64_t>::max()));
  // A rejected count leaves the window as it was.
  EXPECT_EQ(e.selections(0), 1u);
  EXPECT_EQ(e.retx_sum(0), 1u);
  EXPECT_EQ(e.retx_counts(0)[2], 0u);
  EXPECT_EQ(e.retx_counts(0)[0], 0u);
}

}  // namespace
}  // namespace blam
