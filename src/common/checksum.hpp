// Small checksum primitives: CRC-8 for the wire codec and the gateway's
// report-integrity validation, FNV-1a 64 for persisted state (the state
// codec's section trailers and the campaign journal's line hashes).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

namespace blam {

namespace detail {

/// CRC-8/SMBUS (polynomial 0x07, init 0x00, no reflection) lookup table.
/// Table-driven because report checksums run twice per uplink (node stamp,
/// gateway verify) — on the simulation hot path, not just at the edges.
inline constexpr std::array<std::uint8_t, 256> kCrc8Table = [] {
  std::array<std::uint8_t, 256> table{};
  for (int value = 0; value < 256; ++value) {
    auto crc = static_cast<std::uint8_t>(value);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x80) != 0 ? static_cast<std::uint8_t>((crc << 1) ^ 0x07)
                              : static_cast<std::uint8_t>(crc << 1);
    }
    table[static_cast<std::size_t>(value)] = crc;
  }
  return table;
}();

}  // namespace detail

/// One CRC-8/SMBUS step: feeds `byte` into the running `crc`.
[[nodiscard]] inline std::uint8_t crc8_step(std::uint8_t crc, std::uint8_t byte) {
  return detail::kCrc8Table[static_cast<std::uint8_t>(crc ^ byte)];
}

[[nodiscard]] inline std::uint8_t crc8(std::span<const std::uint8_t> bytes) {
  std::uint8_t crc = 0x00;
  for (const std::uint8_t byte : bytes) crc = crc8_step(crc, byte);
  return crc;
}

/// FNV-1a 64 offset basis: the hash of zero bytes.
inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ULL;

/// Folds `bytes` into the running FNV-1a 64 `hash` (start from
/// kFnv1a64Basis), so a hash can be built up piece by piece.
[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view bytes,
                                           std::uint64_t hash = kFnv1a64Basis) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace blam
