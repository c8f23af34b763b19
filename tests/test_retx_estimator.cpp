#include "forecast/retx_estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace blam {
namespace {

/// S_t: how often window `t` was selected, the sum of its histogram row.
std::uint64_t selections(const RetxEstimator& e, std::size_t t) {
  std::uint64_t total = 0;
  for (const std::uint32_t count : e.retx_counts(t)) total += count;
  return total;
}

/// Σ r·I_{r,t}: the (clamped) retransmissions recorded in window `t`.
std::uint64_t retx_sum(const RetxEstimator& e, std::size_t t) {
  const std::span<const std::uint32_t> counts = e.retx_counts(t);
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < counts.size(); ++r) total += r * counts[r];
  return total;
}

/// Empirical P(retransmissions <= r | window t), Eq. 14; 1.0 for a window
/// never selected.
double probability_at_most(const RetxEstimator& e, int r, std::size_t t) {
  const std::span<const std::uint32_t> counts = e.retx_counts(t);
  if (r < 0) return 0.0;
  const std::uint64_t total = selections(e, t);
  if (total == 0) return 1.0;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size() && i <= static_cast<std::size_t>(r); ++i) {
    cumulative += counts[i];
  }
  return static_cast<double>(cumulative) / static_cast<double>(total);
}

/// Eq. 14's expected transmissions recomputed from window `t`'s histogram.
double recomputed_expected(const RetxEstimator& e, std::size_t t) {
  const std::uint64_t total = selections(e, t);
  if (total == 0) return 1.0;
  return 1.0 + static_cast<double>(retx_sum(e, t)) / static_cast<double>(total);
}

TEST(RetxEstimator, ValidatesConstruction) {
  EXPECT_THROW(RetxEstimator(0), std::invalid_argument);
  EXPECT_THROW(RetxEstimator(4, -1), std::invalid_argument);
  // A row holds eight buckets, LoRaWAN's cap of 7 retransmissions.
  EXPECT_THROW(RetxEstimator(4, 8), std::invalid_argument);
  EXPECT_NO_THROW(RetxEstimator(4, RetxEstimator::kMaxRetxCap));
}

TEST(RetxEstimator, OptimisticPriorForUnseenWindows) {
  RetxEstimator e{4};
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_DOUBLE_EQ(e.expected_transmissions(w), 1.0);
    EXPECT_DOUBLE_EQ(probability_at_most(e, 0, w), 1.0);
    EXPECT_EQ(selections(e, w), 0u);
  }
}

TEST(RetxEstimator, Equation14Cdf) {
  RetxEstimator e{2};
  // Window 0: observed retx counts {0, 0, 1, 3}.
  e.record(0, 0);
  e.record(0, 0);
  e.record(0, 1);
  e.record(0, 3);
  EXPECT_DOUBLE_EQ(probability_at_most(e, 0, 0), 0.5);
  EXPECT_DOUBLE_EQ(probability_at_most(e, 1, 0), 0.75);
  EXPECT_DOUBLE_EQ(probability_at_most(e, 2, 0), 0.75);
  EXPECT_DOUBLE_EQ(probability_at_most(e, 3, 0), 1.0);
  EXPECT_DOUBLE_EQ(probability_at_most(e, 7, 0), 1.0);
  EXPECT_DOUBLE_EQ(probability_at_most(e, -1, 0), 0.0);
}

TEST(RetxEstimator, ExpectedTransmissions) {
  RetxEstimator e{2};
  e.record(1, 0);
  e.record(1, 2);
  e.record(1, 4);
  EXPECT_DOUBLE_EQ(e.expected_transmissions(1), 1.0 + 2.0);
  EXPECT_EQ(selections(e, 1), 3u);
}

TEST(RetxEstimator, ClampsAboveMaxRetx) {
  RetxEstimator e{1, 7};
  e.record(0, 100);
  EXPECT_DOUBLE_EQ(e.expected_transmissions(0), 8.0);
  EXPECT_DOUBLE_EQ(probability_at_most(e, 7, 0), 1.0);
  EXPECT_DOUBLE_EQ(probability_at_most(e, 6, 0), 0.0);
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
  EXPECT_THROW((void)probability_at_most(e, 0, 5), std::out_of_range);
  EXPECT_THROW((void)selections(e, 9), std::out_of_range);
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
  // Every window's histogram reads back through retx_counts, and
  // restore_count installs its nonzero buckets into a fresh estimator,
  // which re-derives the totals and answers every query identically.
  RetxEstimator e{5, 3};
  const int retx[] = {0, 1, 3, 2, 0, 7, 1, 1};
  for (int i = 0; i < 40; ++i) e.record(static_cast<std::size_t>(i % 5), retx[i % 8]);

  RetxEstimator restored{5, 3};
  for (std::size_t t = 0; t < e.max_windows(); ++t) {
    ASSERT_EQ(e.retx_counts(t).size(), 4u);
    for (std::size_t r = 0; r < 4; ++r) {
      const std::uint32_t count = e.retx_counts(t)[r];
      if (count != 0) {
        ASSERT_TRUE(restored.restore_count(t, r, count));
      }
    }
  }
  for (std::size_t t = 0; t < e.max_windows(); ++t) {
    EXPECT_EQ(selections(restored, t), selections(e, t));
    EXPECT_EQ(retx_sum(restored, t), retx_sum(e, t));
    EXPECT_EQ(restored.expected_transmissions(t), e.expected_transmissions(t));
    for (int r = -1; r <= 4; ++r) {
      EXPECT_EQ(probability_at_most(restored, r, t), probability_at_most(e, r, t));
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
  EXPECT_EQ(retx_sum(e, 1), 3u);
  EXPECT_EQ(selections(e, 1), 2u);
  EXPECT_EQ(selections(e, 0), 0u);
}

TEST(RetxEstimator, NewAccessorsRejectOutOfRange) {
  RetxEstimator e{2};
  EXPECT_THROW((void)retx_sum(e, 2), std::out_of_range);
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
    EXPECT_EQ(selections(e, t), 0u);
    EXPECT_EQ(retx_sum(e, t), 0u);
    EXPECT_DOUBLE_EQ(e.expected_transmissions(t), 1.0);
    for (const std::uint32_t count : e.retx_counts(t)) EXPECT_EQ(count, 0u);
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
  EXPECT_EQ(selections(e, 1), 4u);
  EXPECT_EQ(retx_sum(e, 1), 4u);
  // A bucket past max_retx; a bucket that already holds a count.
  EXPECT_FALSE(e.restore_count(0, 4, 1));
  EXPECT_FALSE(e.restore_count(0, 1, 5));
  // A bucket holds a u32: any count above 2^32 - 1 cannot be installed.
  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  EXPECT_FALSE(e.restore_count(0, 2, kU32Max + 1));
  EXPECT_FALSE(e.restore_count(0, 2, std::numeric_limits<std::uint64_t>::max() / 2 + 1));
  EXPECT_FALSE(e.restore_count(0, 0, std::numeric_limits<std::uint64_t>::max()));
  // A rejected count leaves the window as it was.
  EXPECT_EQ(selections(e, 0), 1u);
  EXPECT_EQ(retx_sum(e, 0), 1u);
  EXPECT_EQ(e.retx_counts(0)[2], 0u);
  EXPECT_EQ(e.retx_counts(0)[0], 0u);
  EXPECT_EQ(e.expected_transmissions(0), 2.0);
  // The largest count fits, and every bucket of a window may hold it.
  RetxEstimator full{1, 7};
  for (std::size_t r = 0; r < 8; ++r) EXPECT_TRUE(full.restore_count(0, r, kU32Max));
  EXPECT_EQ(selections(full, 0), 8 * kU32Max);
  EXPECT_EQ(full.expected_transmissions(0), 1.0 + 28.0 / 8.0);
}

TEST(RetxEstimator, RecordOnAFullBucketThrows) {
  // A bucket restored at 2^32 - 1 cannot count one more selection: record()
  // throws instead of wrapping the bucket to zero, and leaves the window as
  // it was.
  RetxEstimator e{2, 3};
  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  ASSERT_TRUE(e.restore_count(1, 3, kU32Max));
  ASSERT_TRUE(e.restore_count(1, 0, 1));
  const double before = e.expected_transmissions(1);
  EXPECT_THROW(e.record(1, 3), std::overflow_error);
  EXPECT_THROW(e.record(1, 9), std::overflow_error);  // clamped into the full bucket
  EXPECT_EQ(e.retx_counts(1)[3], kU32Max);
  EXPECT_EQ(e.expected_transmissions(1), before);
  // Other buckets of the window still count.
  e.record(1, 0);
  EXPECT_EQ(e.retx_counts(1)[0], 2u);
}

TEST(RetxEstimator, CachedRowMatchesHistogramBitForBit) {
  // Seeded interleavings of record (retx past the cap included, which is
  // clamped), reset and restore: after every step each window's cached
  // expected transmissions equals, bit for bit, the value recomputed from
  // its histogram row.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng{seed};
    const auto windows = static_cast<std::size_t>(rng.uniform_int(1, 40));
    RetxEstimator e{windows, 7};
    const auto check_all = [&](int step) {
      for (std::size_t t = 0; t < windows; ++t) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(e.expected_transmissions(t)),
                  std::bit_cast<std::uint64_t>(recomputed_expected(e, t)))
            << "seed " << seed << " step " << step << " window " << t;
      }
    };
    for (int step = 0; step < 2000; ++step) {
      const double op = rng.uniform();
      if (op < 0.005) {
        e.reset();
      } else if (op < 0.02) {
        // Restore: rebuild the estimator from its own rows, the way a
        // checkpoint restore does, with a few buckets rewritten to a large
        // count.
        std::vector<std::uint32_t> rows;
        for (std::size_t t = 0; t < windows; ++t) {
          for (const std::uint32_t count : e.retx_counts(t)) rows.push_back(count);
        }
        e.reset();
        for (std::size_t i = 0; i < rows.size(); ++i) {
          std::uint64_t count = rows[i];
          if (rng.uniform() < 0.05) {
            count = static_cast<std::uint64_t>(rng.uniform_int(1, std::int64_t{1} << 31));
          }
          if (count != 0) {
            ASSERT_TRUE(e.restore_count(i / 8, i % 8, count));
          }
        }
      } else {
        const auto last = static_cast<std::int64_t>(windows) - 1;
        const auto t = static_cast<std::size_t>(rng.uniform_int(0, last));
        e.record(t, static_cast<int>(rng.uniform_int(-2, 12)));
      }
      check_all(step);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(RetxEstimator, SparseRowsMatchDenseReference) {
  // Seeded interleavings of record (clamped and overflowing ones included),
  // reset and restore_count (refused ones included) against a dense
  // histogram kept here: after every step each window answers exactly as
  // the dense model, the cost fill gives every window's product, and
  // rows() holds the windows with history, sorted, with no all-zero row.
  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  int refused = 0;  // restore_count calls that returned false
  int overflows = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng{seed, 1};
    const auto windows = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const int max_retx = static_cast<int>(rng.uniform_int(0, RetxEstimator::kMaxRetxCap));
    const auto width = static_cast<std::size_t>(max_retx) + 1;
    RetxEstimator e{windows, max_retx};
    std::vector<std::array<std::uint64_t, 8>> dense(windows);

    const auto dense_expected = [&](std::size_t t) {
      std::uint64_t total = 0;
      std::uint64_t sum = 0;
      for (std::size_t r = 0; r < width; ++r) {
        total += dense[t][r];
        sum += r * dense[t][r];
      }
      return total == 0 ? 1.0 : 1.0 + static_cast<double>(sum) / static_cast<double>(total);
    };
    const Energy per_attempt = Energy::from_joules(0.0371);
    std::vector<Energy> cost;
    const auto check_all = [&](int step) {
      e.fill_tx_cost(per_attempt, cost);
      ASSERT_EQ(cost.size(), windows);
      std::size_t with_history = 0;
      for (std::size_t t = 0; t < windows; ++t) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(e.expected_transmissions(t)),
                  std::bit_cast<std::uint64_t>(dense_expected(t)))
            << "seed " << seed << " step " << step << " window " << t;
        // The cost fill's product, bit for bit, as if taken per window.
        ASSERT_EQ(std::bit_cast<std::uint64_t>(cost[t].joules()),
                  std::bit_cast<std::uint64_t>(per_attempt.joules() * dense_expected(t)));
        const std::span<const std::uint32_t> counts = e.retx_counts(t);
        ASSERT_EQ(counts.size(), width);
        bool nonzero = false;
        for (std::size_t r = 0; r < width; ++r) {
          ASSERT_EQ(counts[r], dense[t][r])
              << "seed " << seed << " step " << step << " window " << t << " r " << r;
          nonzero |= counts[r] != 0;
        }
        with_history += nonzero ? 1 : 0;
      }
      const std::span<const RetxEstimator::Row> rows = e.rows();
      ASSERT_EQ(rows.size(), with_history) << "seed " << seed << " step " << step;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i > 0) {
          ASSERT_LT(rows[i - 1].window, rows[i].window);
        }
        std::uint64_t total = 0;
        for (const std::uint32_t count : rows[i].counts) total += count;
        ASSERT_GT(total, 0u) << "seed " << seed << " step " << step;
      }
    };

    for (int step = 0; step < 2000; ++step) {
      const double op = rng.uniform();
      const auto last = static_cast<std::int64_t>(windows) - 1;
      const auto t = static_cast<std::size_t>(rng.uniform_int(0, last));
      if (op < 0.01) {
        e.reset();
        for (auto& row : dense) row.fill(0);
      } else if (op < 0.2) {
        // A bucket index past the width, a count of zero or past 2^32 - 1,
        // and a bucket that already holds a count are refused or no-ops.
        const auto r = static_cast<std::size_t>(rng.uniform_int(0, 8));
        const double pick = rng.uniform();
        auto count = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
        if (pick < 0.1) {
          count = 0;
        } else if (pick < 0.2) {
          count = kU32Max + 1;
        } else if (pick < 0.3) {
          count = kU32Max;
        }
        const bool accepted = r < width && dense[t][r] == 0 && count <= kU32Max;
        ASSERT_EQ(e.restore_count(t, r, count), accepted) << "seed " << seed << " step " << step;
        if (accepted) dense[t][r] = count;
        refused += accepted ? 0 : 1;
      } else if (op < 0.21) {
        EXPECT_THROW(e.record(windows + t, 0), std::out_of_range);
        EXPECT_THROW((void)e.restore_count(windows, 0, 1), std::out_of_range);
      } else {
        const int retx = static_cast<int>(rng.uniform_int(-2, 12));
        const auto r = static_cast<std::size_t>(std::clamp(retx, 0, max_retx));
        if (dense[t][r] == kU32Max) {
          EXPECT_THROW(e.record(t, retx), std::overflow_error);
          ++overflows;
        } else {
          e.record(t, retx);
          ++dense[t][r];
        }
      }
      check_all(step);
      if (HasFatalFailure()) return;
    }
  }
  // The walk reaches the refusals it claims to check.
  EXPECT_GT(refused, 0);
  EXPECT_GT(overflows, 0);
}

}  // namespace
}  // namespace blam
