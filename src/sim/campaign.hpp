// Crash-tolerant sweep campaigns layered on SweepRunner.
//
// A campaign hardens a grid of independent cells against the three ways a
// long run dies today: a cell that hangs (a per-attempt deadline the cell
// polls cooperatively), a cell that throws (retry, then quarantine the
// config+seed to quarantine.json for offline repro instead of losing the
// grid), and the process being killed (an append-only checkpoint journal so
// a re-run skips completed cells and reproduces their payloads
// byte-identically).
//
// Identity model: each cell carries a caller-supplied `key` that fingerprints
// everything the cell's result depends on (config, seed, durations). The
// journal stores FNV-1a hashes of the key and the payload per line, so a
// journal written by a different grid (or a torn final line from a kill -9)
// is detected and ignored per-entry — resuming is safe against both.
//
// Payloads are opaque strings chosen by the caller; callers that need exact
// results round-trip them through a lossless serialization (see the result
// codecs in net/experiment.hpp), which makes "fresh" and "resumed" cells
// indistinguishable down to the last bit.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sweep_runner.hpp"

namespace blam {

/// Thrown by CellToken::throw_if_cancelled once the cell's deadline passed.
class CellTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Cooperative cancellation: the steady-clock deadline of one attempt of a
/// cell. A body polls cancelled() (or calls throw_if_cancelled()) at its
/// natural step boundaries, on its own thread; copies carry the same
/// deadline. A default token has no deadline and is never cancelled.
class CellToken {
 public:
  using Clock = std::chrono::steady_clock;

  CellToken() = default;
  explicit CellToken(Clock::time_point deadline) : deadline_{deadline} {}

  [[nodiscard]] bool cancelled() const { return Clock::now() >= deadline_; }
  /// Throws CellTimeout once the deadline has passed.
  void throw_if_cancelled() const;

 private:
  Clock::time_point deadline_{Clock::time_point::max()};
};

struct CampaignCell {
  /// Stable fingerprint of everything the result depends on; the journal's
  /// identity for this cell.
  std::string key;
  /// Progress/diagnostic label (e.g. the policy label).
  std::string label;
  std::uint64_t seed{0};
  /// Human-readable config dump written to quarantine.json for repro.
  std::string config_text;
};

struct CampaignOptions {
  SweepOptions sweep{};
  /// Watchdog: each attempt of a cell gets a deadline this many seconds
  /// after it starts (0 = none). The cancellation is cooperative — bodies
  /// observe the deadline at step boundaries, through their CellToken.
  double cell_timeout_s{0.0};
  /// Re-runs after a failure before the cell is quarantined.
  int retries{1};
  /// Checkpoint journal path ("" = no journal). Appended after every
  /// completed cell and read back on the next run to skip completed cells.
  std::string journal_path;
  /// Where failing cells are dumped ("" = no quarantine file). The file is
  /// removed when the campaign finishes clean, so its presence means loss.
  std::string quarantine_path{"quarantine.json"};
};

struct QuarantinedCell {
  std::string key;
  std::string label;
  std::uint64_t seed{0};
  std::int64_t attempts{0};
  bool timed_out{false};
  std::string error;
  std::string config_text;
};

/// Writes `cells` as quarantine JSON (atomically: temp file + rename).
void write_quarantine(const std::string& path, const std::vector<QuarantinedCell>& cells);

/// Reads a file written by write_quarantine. Throws std::runtime_error on an
/// unreadable file or a shape it does not recognize.
[[nodiscard]] std::vector<QuarantinedCell> load_quarantine(const std::string& path);

struct CampaignReport {
  /// Payload per cell, in cell order; nullopt = quarantined.
  std::vector<std::optional<std::string>> results;
  /// Cells that failed all attempts, sorted by cell index.
  std::vector<QuarantinedCell> quarantined;
  /// Cells whose payloads were restored from the journal (bodies not run).
  std::size_t resumed{0};
};

/// Throws std::runtime_error naming every quarantined cell (and the
/// quarantine file) when the report has any; no-op otherwise. Figure
/// binaries call this so a partial grid fails loudly instead of plotting
/// holes, with the repro file left behind.
void throw_if_quarantined(const CampaignReport& report, const std::string& quarantine_path);

class Campaign {
 public:
  /// Body: compute cell `i`'s payload, polling `token` for cancellation.
  /// Exceptions (including CellTimeout) trigger retry-then-quarantine; they
  /// never abort the rest of the grid.
  using Body = std::function<std::string(std::size_t, const CellToken&)>;

  Campaign(std::vector<CampaignCell> cells, CampaignOptions options);

  /// Runs (or resumes) the grid. Journal-completed cells are returned
  /// without invoking the body; the rest fan across SweepRunner workers.
  [[nodiscard]] CampaignReport run(const Body& body);

  [[nodiscard]] const std::vector<CampaignCell>& cells() const { return cells_; }

 private:
  std::vector<CampaignCell> cells_;
  CampaignOptions options_;
};

}  // namespace blam
