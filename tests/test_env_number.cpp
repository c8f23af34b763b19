// The one parse rule behind every numeric BLAM_* environment override:
// the whole string must be a number inside the knob's bounds, or the
// caller keeps its default. Retired variables are refused by name at the
// two places that used to read them.
#include "common/env_number.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "env_guard.hpp"
#include "net/scenario.hpp"
#include "sim/shard_engine.hpp"

namespace blam {
namespace {

struct IntCase {
  const char* text;
  std::optional<std::int64_t> expected;
};

TEST(EnvNumber, IntegerTable) {
  // Bounds [1, 16], like a worker or shard count.
  const IntCase cases[] = {
      {nullptr, std::nullopt},                 // unset
      {"", std::nullopt},                      // empty
      {"4x", std::nullopt},                    // trailing text
      {"4 ", std::nullopt},                    // trailing space
      {"nope", std::nullopt},                  // not a number
      {"2.5", std::nullopt},                   // not an integer
      {"-3", std::nullopt},                    // negative
      {"0", std::nullopt},                     // below the lower bound
      {"17", std::nullopt},                    // above the upper bound
      {"99999999999999999999", std::nullopt},  // overflows int64
      {"1", 1},                                // the lower bound
      {"16", 16},                              // the upper bound
      {"8", 8},                                // inside
      {"+8", 8},                               // explicit sign
  };
  for (const IntCase& c : cases) {
    SCOPED_TRACE(c.text == nullptr ? "(null)" : c.text);
    EXPECT_EQ(parse_number<std::int64_t>(c.text, 1, 16), c.expected);
  }
}

struct DoubleCase {
  const char* text;
  std::optional<double> expected;
};

TEST(EnvNumber, FloatingPointTable) {
  // Bounds [0, inf], like a duration in seconds.
  const double inf = std::numeric_limits<double>::infinity();
  const DoubleCase cases[] = {
      {nullptr, std::nullopt},  // unset
      {"", std::nullopt},       // empty
      {"2.5s", std::nullopt},   // trailing text
      {"-1", std::nullopt},     // negative
      {"nan", std::nullopt},    // fails every bound
      {"1e999", std::nullopt},  // overflows double
      {"0", 0.0},               // the lower bound
      {"2.5", 2.5},             // inside
      {"30", 30.0},             // inside
  };
  for (const DoubleCase& c : cases) {
    SCOPED_TRACE(c.text == nullptr ? "(null)" : c.text);
    EXPECT_EQ(parse_number<double>(c.text, 0.0, inf), c.expected);
  }
  EXPECT_EQ(parse_number<double>("3", 0.0, 2.0), std::nullopt);  // out of range
}

TEST(EnvNumber, ReadsTheEnvironment) {
  ASSERT_EQ(setenv("BLAM_ENV_NUMBER_TEST", "12", 1), 0);
  EXPECT_EQ(env_number<std::int64_t>("BLAM_ENV_NUMBER_TEST", 0, 100), 12);
  EXPECT_EQ(env_number<std::int64_t>("BLAM_ENV_NUMBER_TEST", 0, 10), std::nullopt);
  ASSERT_EQ(unsetenv("BLAM_ENV_NUMBER_TEST"), 0);
  EXPECT_EQ(env_number<std::int64_t>("BLAM_ENV_NUMBER_TEST", 0, 100), std::nullopt);
}

TEST(EnvNumber, RetiredVariablesAreRefusedByNameAtBothSites) {
  // Each retired variable, set to any value (empty included), makes both
  // of its former readers throw a std::runtime_error naming it: the figure
  // grids' campaign options and the engine's constructor.
  const ScenarioConfig config = lorawan_scenario(4, 1);
  ASSERT_EQ(kRetiredEnv.size(), 4u);
  for (const char* name : kRetiredEnv) {
    for (const char* value : {"1", ""}) {
      SCOPED_TRACE(std::string{name} + "=" + value);
      const EnvGuard guard{name, value};
      const auto names_it = [name](const std::runtime_error& e) {
        return std::string{e.what()}.find(name) != std::string::npos;
      };
      try {
        (void)bench::campaign_options();
        ADD_FAILURE() << "campaign_options() accepted it";
      } catch (const std::runtime_error& e) {
        EXPECT_TRUE(names_it(e)) << e.what();
      }
      try {
        const ShardedNetwork engine{config};
        ADD_FAILURE() << "ShardedNetwork accepted it";
      } catch (const std::runtime_error& e) {
        EXPECT_TRUE(names_it(e)) << e.what();
      }
    }
    SCOPED_TRACE(std::string{name} + " unset");
    const EnvGuard unset{name};
    ::unsetenv(name);
    EXPECT_NO_THROW((void)bench::campaign_options());
    EXPECT_NO_THROW(ShardedNetwork{config});
  }
}

}  // namespace
}  // namespace blam
