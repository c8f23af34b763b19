// Test helpers that edit state-codec streams the way a forger would: change
// a value line, then recompute the section hashes, so the damage gets past
// the FNV trailers and reaches the reader's semantic checks.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/checksum.hpp"

namespace blam::stream_edit {

/// `text` split after every newline (each piece keeps its '\n'; a final
/// piece without one is kept as it is).
inline std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    const std::size_t end = eol == std::string_view::npos ? text.size() : eol + 1;
    lines.emplace_back(text.substr(0, end));
    text.remove_prefix(end);
  }
  return lines;
}

inline std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line;
  return text;
}

/// Recomputes every section trailer in `text`. Lines outside sections (an
/// engine stream's magic line) are kept as they are.
inline std::string reseal(std::string_view text) {
  std::vector<std::string> lines = split_lines(text);
  std::uint64_t hash = 0;
  bool in_section = false;
  for (std::string& line : lines) {
    if (line.starts_with("section ")) {
      in_section = true;
      hash = kFnv1a64Basis;
    } else if (in_section && line.starts_with("end ")) {
      char trailer[32];
      std::snprintf(trailer, sizeof trailer, "end %016llx\n",
                    static_cast<unsigned long long>(hash));
      line = trailer;
      in_section = false;
    } else if (in_section) {
      hash = fnv1a64(line, hash);
    }
  }
  return join_lines(lines);
}

}  // namespace blam::stream_edit
