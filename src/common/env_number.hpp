// Numeric environment overrides (BLAM_SHARDS, BLAM_JOBS, BLAM_AUDIT, ...):
// one parse rule for every knob. The whole string must be a number inside
// the knob's bounds; anything else is ignored and the caller keeps its
// default.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <type_traits>

namespace blam {

/// Parses all of `text` as a T in [lo, hi]: integers with strtoll (base
/// 10), floating point with strtod. nullopt for null or empty text,
/// trailing characters, a value strtoll/strtod had to clamp, or a value
/// outside the bounds.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(const char* text, T lo, T hi) {
  static_assert(std::is_same_v<T, std::int64_t> || std::is_same_v<T, double>);
  if (text == nullptr) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  T value{};
  if constexpr (std::is_same_v<T, double>) {
    value = std::strtod(text, &end);
  } else {
    value = std::strtoll(text, &end, 10);
  }
  if (end == text || *end != '\0' || errno == ERANGE) return std::nullopt;
  if (!(value >= lo && value <= hi)) return std::nullopt;
  return value;
}

/// parse_number over the environment variable `name` (nullopt when unset).
template <typename T>
[[nodiscard]] std::optional<T> env_number(const char* name, T lo, T hi) {
  return parse_number<T>(std::getenv(name), lo, hi);
}

}  // namespace blam
