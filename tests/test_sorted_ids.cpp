#include "common/sorted_ids.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace blam {
namespace {

/// Checks lower_bound_id against std::lower_bound for every id from 0 to
/// two past the largest, present or not.
void expect_matches_lower_bound(const std::vector<std::uint32_t>& ids) {
  const std::uint32_t top = ids.empty() ? 3 : ids.back() + 2;
  for (std::uint32_t id = 0; id <= top; ++id) {
    const auto expected = std::lower_bound(ids.begin(), ids.end(), id);
    const auto got = lower_bound_id(ids.begin(), ids.end(), id, std::identity{});
    ASSERT_EQ(got - ids.begin(), expected - ids.begin()) << "id " << id;
  }
}

TEST(SortedIds, EdgeShapes) {
  expect_matches_lower_bound({});
  expect_matches_lower_bound({0});
  expect_matches_lower_bound({7});
  expect_matches_lower_bound({3, 4});
  expect_matches_lower_bound({0, 1, 2, 3, 4, 5});
  // Clustered ids make the interpolated probe land far from the answer.
  expect_matches_lower_bound({0, 1, 2, 3, 4, 1000, 1001, 1002, 5000});
  expect_matches_lower_bound({1, 500, 501, 502, 503, 504, 505, 506, 507, 508, 509, 510});
}

TEST(SortedIds, CityShardResidues) {
  // A shard of the 16-gateway city: ids whose residue mod 16 is one of its
  // four cells.
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    const std::uint32_t r = i % 16;
    if (r == 1 || r == 6 || r == 9 || r == 14) ids.push_back(i);
  }
  expect_matches_lower_bound(ids);
}

TEST(SortedIds, RandomSetsMatchLowerBound) {
  Rng rng{2024};
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint32_t> ids;
    const auto n = rng.uniform_int(0, 60);
    const auto max_gap = rng.uniform_int(1, 200);
    std::uint32_t id = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
    for (std::int64_t i = 0; i < n; ++i) {
      ids.push_back(id);
      id += static_cast<std::uint32_t>(rng.uniform_int(1, max_gap));
    }
    expect_matches_lower_bound(ids);
  }
}

TEST(SortedIds, ExtremeIdsAndProjection) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  struct Row {
    std::uint32_t id;
    int payload;
  };
  const std::vector<Row> rows{{0, 10}, {2, 11}, {kMax - 1, 12}, {kMax, 13}};
  const auto id_of = [](const Row& row) { return row.id; };
  EXPECT_EQ(lower_bound_id(rows.begin(), rows.end(), 2, id_of)->payload, 11);
  EXPECT_EQ(lower_bound_id(rows.begin(), rows.end(), 3, id_of)->payload, 12);
  EXPECT_EQ(lower_bound_id(rows.begin(), rows.end(), kMax, id_of)->payload, 13);
  EXPECT_EQ(lower_bound_id(rows.begin(), rows.end(), 0, id_of)->payload, 10);
}

}  // namespace
}  // namespace blam
