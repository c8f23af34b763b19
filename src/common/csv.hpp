// Minimal CSV emission used by the bench binaries so figure data can be
// re-plotted outside the repo. Values are written with full round-trip
// precision; strings containing separators/quotes are quoted per RFC 4180.
//
// Emission is atomic: rows go to `<path>.tmp`, and flush() renames it onto
// the final path after a successful flush+close. A crash (or an exception)
// mid-write therefore never leaves a truncated CSV where a complete one is
// expected — the stale temp file is the only debris. The destructor flags a
// writer that was never flush()ed (assert in debug builds, stderr warning in
// release), because a forgotten flush now means NO output file at all.
//
// Thread safety: a CsvWriter owns one output stream and is NOT safe to share
// across sweep workers. The supported pattern (used by every figure binary)
// is aggregate-then-write: workers produce rows, the main thread writes the
// file after the sweep joins. The static cell() formatters are pure.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace blam {

class CsvWriter {
 public:
  /// Opens `<path>.tmp` for writing and emits the header row; `path` itself
  /// appears only when flush() commits. Throws std::runtime_error if the
  /// temp file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Renames the temp file away if flush() was never called (see flush()).
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Appends one row; the number of cells must match the header width.
  /// Throws std::logic_error after flush() (the file is already committed).
  void row(const std::vector<std::string>& cells);

  /// Commits the file: flushes, closes, and atomically renames the temp
  /// file onto the final path. Throws std::runtime_error if the stream has
  /// failed (disk full, deleted directory, ...) or the rename fails. Until
  /// this succeeds the final path is untouched. Idempotent.
  void flush();

  [[nodiscard]] static std::string cell(double v);
  [[nodiscard]] static std::string cell(std::int64_t v);
  [[nodiscard]] static std::string cell(std::uint64_t v);
  [[nodiscard]] static std::string cell(std::string_view v);

 private:
  void write_row(const std::vector<std::string>& cells);

  std::ofstream out_;
  std::string path_;
  std::string tmp_path_;
  std::size_t width_;
  bool committed_{false};
  /// Exceptions in flight at construction; the destructor only flags a
  /// missing flush() when no NEW exception is unwinding through it.
  int uncaught_at_ctor_{0};
};

}  // namespace blam
