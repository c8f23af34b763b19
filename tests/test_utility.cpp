#include "core/utility.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

namespace blam {
namespace {

TEST(LinearUtility, PaperEquation16) {
  const LinearUtility u;
  // mu = (n - t) / n.
  EXPECT_DOUBLE_EQ(u.value(0, 10), 1.0);
  EXPECT_DOUBLE_EQ(u.value(5, 10), 0.5);
  EXPECT_DOUBLE_EQ(u.value(9, 10), 0.1);
}

TEST(LinearUtility, SingleWindowIsFullUtility) {
  const LinearUtility u;
  EXPECT_DOUBLE_EQ(u.value(0, 1), 1.0);
}

TEST(UtilityFunctions, RangeChecks) {
  const LinearUtility u;
  EXPECT_THROW((void)u.value(-1, 10), std::invalid_argument);
  EXPECT_THROW((void)u.value(10, 10), std::invalid_argument);
  EXPECT_THROW((void)u.value(0, 0), std::invalid_argument);
}

TEST(ExponentialUtility, ShapeAndBounds) {
  const ExponentialUtility u{3.0};
  EXPECT_DOUBLE_EQ(u.value(0, 10), 1.0);
  EXPECT_NEAR(u.value(9, 10), std::exp(-2.7), 1e-12);
  EXPECT_THROW(ExponentialUtility{-1.0}, std::invalid_argument);
}

TEST(StepUtility, DeadlineSemantics) {
  const StepUtility u{0.3, 0.1};
  EXPECT_DOUBLE_EQ(u.value(0, 10), 1.0);
  EXPECT_DOUBLE_EQ(u.value(3, 10), 1.0);   // 0.3 of the period: still fresh
  EXPECT_DOUBLE_EQ(u.value(4, 10), 0.1);   // past the deadline
  EXPECT_DOUBLE_EQ(u.value(9, 10), 0.1);
  EXPECT_THROW(StepUtility(1.5, 0.1), std::invalid_argument);
  EXPECT_THROW(StepUtility(0.5, 1.5), std::invalid_argument);
}

// Property sweep: every utility implementation must be monotonically
// non-increasing in t and bounded in [0, 1] — the protocol relies on both.
// The kind is a std::string, not a const char*, so GoogleTest prints the
// parameter by value: a pointer would put a load address into every test
// name, and the names would change from one build to the next.
class UtilityPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {
 protected:
  static std::unique_ptr<UtilityFunction> make(const std::string& kind) {
    if (kind == "linear") return std::make_unique<LinearUtility>();
    if (kind == "exponential") return std::make_unique<ExponentialUtility>(2.5);
    return std::make_unique<StepUtility>(0.4, 0.05);
  }
};

TEST_P(UtilityPropertyTest, MonotoneNonIncreasingAndBounded) {
  const auto [kind, n] = GetParam();
  const auto u = make(kind);
  double prev = 1.0 + 1e-12;
  for (int t = 0; t < n; ++t) {
    const double v = u->value(t, n);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    EXPECT_LE(v, prev) << kind << " t=" << t << " n=" << n;
    prev = v;
  }
}

TEST_P(UtilityPropertyTest, FirstWindowHasFullUtility) {
  const auto [kind, n] = GetParam();
  EXPECT_DOUBLE_EQ(make(kind)->value(0, n), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllUtilitiesAndWidths, UtilityPropertyTest,
    ::testing::Combine(::testing::Values(std::string{"linear"},
                                         std::string{"exponential"},
                                         std::string{"step"}),
                       ::testing::Values(1, 2, 10, 16, 60)),
    [](const auto& suite_info) {
      return std::get<0>(suite_info.param) + "_n" +
             std::to_string(std::get<1>(suite_info.param));
    });

}  // namespace
}  // namespace blam
