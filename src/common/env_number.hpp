// Numeric environment overrides (BLAM_SHARDS, BLAM_JOBS, BLAM_AUDIT, ...):
// one parse rule for every knob. The whole string must be a number inside
// the knob's bounds; anything else is ignored and the caller keeps its
// default. Also the one list of retired variables, which are refused by
// name rather than ignored.
#pragma once

#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
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

/// Variables whose mechanisms were deleted (DESIGN.md section 17.4): the
/// campaign's retry, quarantine file and per-cell deadline, and the epoch
/// barrier's wedge timeout.
inline constexpr std::array<const char*, 4> kRetiredEnv{
    "BLAM_RETRIES", "BLAM_QUARANTINE", "BLAM_CELL_TIMEOUT_S", "BLAM_SHARD_TIMEOUT_S"};

/// Throws std::runtime_error naming every retired variable that is set (to
/// any value, empty included), the way a removed scenario key is refused: a
/// run must not look supervised when nothing reads the setting.
inline void refuse_retired_env() {
  std::string set;
  for (const char* name : kRetiredEnv) {
    if (std::getenv(name) != nullptr) set += set.empty() ? name : std::string{", "} + name;
  }
  if (!set.empty()) {
    throw std::runtime_error{"environment: retired variables set (nothing reads them; unset "
                             "them): " + set};
  }
}

}  // namespace blam
