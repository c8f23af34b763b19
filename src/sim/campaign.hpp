// Resumable sweep campaigns layered on SweepRunner.
//
// A campaign adds one thing to a grid of independent cells: an append-only
// checkpoint journal, so a re-run after the process died (kill -9, a cell
// that threw) skips the completed cells and reproduces their payloads
// byte-identically. A cell that throws fails the grid through SweepRunner's
// rule: no further cells start, in-flight cells finish and are journaled,
// and the lowest-index failure is rethrown with the cell's label prepended.
// Cells are deterministic, so a failed cell is not retried: it would throw
// the same exception again.
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

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/sweep_runner.hpp"

namespace blam {

struct CampaignCell {
  /// Stable fingerprint of everything the result depends on; the journal's
  /// identity for this cell.
  std::string key;
  /// Progress and error label (e.g. the policy label); "cell <i>" if empty.
  std::string label;
};

struct CampaignOptions {
  SweepOptions sweep{};
  /// Checkpoint journal path ("" = no journal). Appended after every
  /// completed cell and read back on the next run to skip completed cells.
  std::string journal_path;
};

struct CampaignReport {
  /// Payload per cell, in cell order.
  std::vector<std::string> results;
  /// Cells whose payloads were restored from the journal (bodies not run).
  std::size_t resumed{0};
};

class Campaign {
 public:
  /// Body: compute cell `i`'s payload.
  using Body = std::function<std::string(std::size_t)>;

  Campaign(std::vector<CampaignCell> cells, CampaignOptions options);

  /// Runs (or resumes) the grid. Journal-completed cells are returned
  /// without invoking the body; the rest fan across SweepRunner workers.
  /// A body's std::exception is rethrown as std::runtime_error
  /// "<label>: <what>" after the cells in flight have finished and been
  /// journaled (the lowest-index failure when several cells fail).
  [[nodiscard]] CampaignReport run(const Body& body);

 private:
  /// Cell `i`'s label, or "cell <i>" when it has none.
  [[nodiscard]] std::string label(std::size_t i) const;

  std::vector<CampaignCell> cells_;
  CampaignOptions options_;
};

}  // namespace blam
