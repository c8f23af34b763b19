#include "sim/campaign.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/checksum.hpp"

namespace blam {

namespace {

namespace fs = std::filesystem;

[[nodiscard]] std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Journal lines are single physical lines: payload newlines/backslashes are
/// escaped so a torn write can only damage the line it interrupted.
[[nodiscard]] std::string escape_payload(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

[[nodiscard]] std::string unescape_payload(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      out += s[i + 1] == 'n' ? '\n' : s[i + 1];
      ++i;
    } else {
      out += s[i];
    }
  }
  return out;
}

/// Tolerant journal load: returns key-hash -> payload for every intact `v1`
/// line; malformed, torn, or hash-mismatched lines are skipped (a kill -9
/// mid-append damages at most the final line).
// blam-lint: allow(D2) -- key-hash lookup table; queried by find() only, never iterated
[[nodiscard]] std::unordered_map<std::uint64_t, std::string> load_journal(
    const std::string& path) {
  // blam-lint: allow(D2) -- resumed results land in submission-order slots, not map order
  std::unordered_map<std::uint64_t, std::string> done;
  std::ifstream in{path};
  if (!in) return done;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields{line};
    std::string version, key_hex, payload_hex;
    if (!(fields >> version >> key_hex >> payload_hex) || version != "v1") continue;
    std::uint64_t key_hash = 0;
    std::uint64_t payload_hash = 0;
    try {
      key_hash = std::stoull(key_hex, nullptr, 16);
      payload_hash = std::stoull(payload_hex, nullptr, 16);
    } catch (const std::exception&) {
      continue;
    }
    std::string escaped;
    std::getline(fields, escaped);
    if (!escaped.empty() && escaped.front() == ' ') escaped.erase(0, 1);
    const std::string payload = unescape_payload(escaped);
    if (fnv1a64(payload) != payload_hash) continue;  // torn or corrupted line
    done[key_hash] = payload;
  }
  return done;
}

}  // namespace

Campaign::Campaign(std::vector<CampaignCell> cells, CampaignOptions options)
    : cells_{std::move(cells)}, options_{std::move(options)} {}

std::string Campaign::label(std::size_t i) const {
  return cells_[i].label.empty() ? "cell " + std::to_string(i) : cells_[i].label;
}

CampaignReport Campaign::run(const Body& body) {
  const std::size_t n = cells_.size();
  CampaignReport report;
  report.results.resize(n);

  // --- resume: restore journal-completed cells without running them -------
  std::vector<std::size_t> todo;
  todo.reserve(n);
  if (!options_.journal_path.empty()) {
    const auto done = load_journal(options_.journal_path);
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = done.find(fnv1a64(cells_[i].key));
      if (it != done.end()) {
        report.results[i] = it->second;
        ++report.resumed;
      } else {
        todo.push_back(i);
      }
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) todo.push_back(i);
  }

  std::ofstream journal;
  std::mutex journal_mutex;
  if (!options_.journal_path.empty()) {
    const fs::path jpath{options_.journal_path};
    if (jpath.has_parent_path()) {
      std::error_code ec;
      fs::create_directories(jpath.parent_path(), ec);
    }
    journal.open(options_.journal_path, std::ios::app);
    if (!journal) {
      throw std::runtime_error{"Campaign: cannot open journal " + options_.journal_path};
    }
  }

  SweepOptions sweep = options_.sweep;
  if (!sweep.label) {
    // Default labels by CELL index (not work-queue position), so progress
    // lines stay meaningful on a resumed grid.
    sweep.label = [this, &todo](std::size_t t) { return label(todo[t]); };
  } else {
    auto base = sweep.label;
    sweep.label = [base, &todo](std::size_t t) { return base(todo[t]); };
  }

  SweepRunner runner{sweep};
  runner.run_indexed(todo.size(), [&](std::size_t t) {
    const std::size_t i = todo[t];
    std::string payload;
    try {
      payload = body(i);
    } catch (const std::exception& e) {
      throw std::runtime_error{label(i) + ": " + e.what()};
    }
    if (journal.is_open()) {
      const std::string line = "v1 " + hex64(fnv1a64(cells_[i].key)) + ' ' +
                               hex64(fnv1a64(payload)) + ' ' + escape_payload(payload);
      const std::lock_guard<std::mutex> lock{journal_mutex};
      journal << line << '\n';
      journal.flush();  // a later crash must not lose this cell
    }
    report.results[i] = std::move(payload);
  });
  return report;
}

}  // namespace blam
