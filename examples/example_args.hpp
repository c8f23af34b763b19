// Positional command-line numbers for the example programs. Every argument
// goes through parse_number with stated bounds: a malformed, non-finite or
// out-of-range value prints the program's usage and exits 2, so no example
// runs a different experiment than the one asked for, and no days value can
// overflow the int64 microsecond clock in Time::from_days.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>

#include "common/env_number.hpp"

namespace blam::example {

/// Run length bounds, in simulated days: at least one second, and at most
/// 1e6 days (~2,700 years), far inside the clock's ~1.07e8 days so event
/// times scheduled past the horizon cannot wrap either.
inline constexpr double kMinDays = 1.0 / 86400.0;
inline constexpr double kMaxDays = 1e6;
inline constexpr std::int64_t kMaxNodes = 10'000'000;

class Args {
 public:
  /// `usage_line` names the positional arguments after the program name;
  /// more than `max_positional` of them is itself a usage error.
  Args(int argc, char** argv, const char* usage_line, int max_positional)
      : argc_{argc}, argv_{argv}, usage_{usage_line} {
    if (argc - 1 > max_positional) {
      std::fprintf(stderr, "%s: too many arguments\n", argv[0]);
      usage();
    }
  }

  /// argv[index] as a T in [lo, hi]; `fallback` when it is absent.
  template <typename T>
  [[nodiscard]] T number(int index, T fallback, T lo, T hi) const {
    if (index >= argc_) return fallback;
    const std::optional<T> value = parse_number<T>(argv_[index], lo, hi);
    if (!value) {
      std::fprintf(stderr, "%s: bad argument '%s'\n", argv_[0], argv_[index]);
      usage();
    }
    return *value;
  }

  [[nodiscard]] int nodes(int index, int fallback) const {
    return static_cast<int>(number<std::int64_t>(index, fallback, 1, kMaxNodes));
  }
  [[nodiscard]] double days(int index, double fallback) const {
    return number(index, fallback, kMinDays, kMaxDays);
  }
  [[nodiscard]] std::uint64_t seed(int index, std::uint64_t fallback) const {
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    const auto fallback_value = static_cast<std::int64_t>(fallback);
    return static_cast<std::uint64_t>(number<std::int64_t>(index, fallback_value, 0, kMax));
  }

  /// Prints the usage line and exits 2.
  [[noreturn]] void usage() const {
    std::fprintf(stderr, "usage: %s %s\n", argv_[0], usage_);
    std::exit(2);
  }

 private:
  int argc_;
  char** argv_;
  const char* usage_;
};

}  // namespace blam::example
