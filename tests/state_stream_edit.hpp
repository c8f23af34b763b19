// Test helpers that edit state-codec streams the way a forger would: change
// a value line, then recompute the section hashes (and an engine stream's
// slice offset table), so the damage gets past the FNV trailers and the
// offset table and reaches the reader's semantic checks.
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
inline std::string rehash(std::string_view text) {
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

/// Rewrites an engine stream's offset table (the last value lines of its
/// meta section, one byte length per slice) to match where each slice's
/// `section clock` line now falls. Anything else, including a stream whose
/// meta section is too short to hold the table, comes back unchanged.
inline std::string fix_offset_table(std::string_view text) {
  std::vector<std::string> lines = split_lines(text);
  if (lines.size() < 2 || !lines[0].starts_with("blamsim ") || lines[1] != "section meta\n") {
    return std::string{text};
  }
  std::size_t meta_end = 2;
  while (meta_end < lines.size() && !lines[meta_end].starts_with("end ")) ++meta_end;
  if (meta_end == lines.size()) return std::string{text};
  std::vector<std::uint64_t> lengths;
  for (std::size_t i = meta_end + 1; i < lines.size(); ++i) {
    if (lines[i] == "section clock\n" || lengths.empty()) lengths.push_back(0);
    lengths.back() += lines[i].size();
  }
  if (lengths.size() + 2 > meta_end) return std::string{text};  // no room for the table
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    lines[meta_end - lengths.size() + s] = "u " + std::to_string(lengths[s]) + "\n";
  }
  return join_lines(lines);
}

/// fix_offset_table, then rehash: an edit inside a slice then reaches the
/// readers' semantic checks instead of the offset-table check.
inline std::string reseal(std::string_view text) { return rehash(fix_offset_table(text)); }

}  // namespace blam::stream_edit
