#include "sim/campaign.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string_view>
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

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Minimal JSON scanner for the exact shape write_quarantine emits (string,
/// integer and boolean fields inside an object array). Not a general parser.
class QuarantineScanner {
 public:
  explicit QuarantineScanner(std::string text) : text_{std::move(text)} {}

  [[nodiscard]] std::vector<QuarantinedCell> parse() {
    std::vector<QuarantinedCell> cells;
    pos_ = text_.find("\"cells\"");
    if (pos_ == std::string::npos) throw std::runtime_error{"quarantine: no \"cells\" array"};
    expect('[');
    skip_ws();
    if (peek() == ']') return cells;
    for (;;) {
      cells.push_back(parse_cell());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    return cells;
  }

 private:
  [[nodiscard]] char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error{"quarantine: truncated file"};
    return text_[pos_];
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  void expect(char c) {
    pos_ = text_.find(c, pos_);
    if (pos_ == std::string::npos) {
      throw std::runtime_error{std::string{"quarantine: expected '"} + c + "'"};
    }
    ++pos_;
  }

  [[nodiscard]] std::string parse_string() {
    skip_ws();
    if (peek() != '"') throw std::runtime_error{"quarantine: expected string"};
    ++pos_;
    std::string out;
    while (peek() != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) throw std::runtime_error{"quarantine: bad \\u escape"};
            const unsigned code =
                static_cast<unsigned>(std::stoul(text_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            out += static_cast<char>(code);  // writer only emits codes < 0x80
            break;
          }
          default:
            out += esc;
        }
      } else {
        out += c;
      }
    }
    ++pos_;
    return out;
  }

  [[nodiscard]] QuarantinedCell parse_cell() {
    expect('{');
    QuarantinedCell cell;
    for (;;) {
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return cell;
      }
      const std::string field = parse_string();
      expect(':');
      skip_ws();
      if (field == "key") {
        cell.key = parse_string();
      } else if (field == "label") {
        cell.label = parse_string();
      } else if (field == "config") {
        cell.config_text = parse_string();
      } else if (field == "error") {
        cell.error = parse_string();
      } else if (field == "seed") {
        cell.seed = std::stoull(scan_scalar());
      } else if (field == "attempts") {
        cell.attempts = std::stoll(scan_scalar());
      } else if (field == "timed_out") {
        cell.timed_out = scan_scalar() == "true";
      } else {
        throw std::runtime_error{"quarantine: unknown field '" + field + "'"};
      }
      skip_ws();
      if (peek() == ',') ++pos_;
    }
  }

  [[nodiscard]] std::string scan_scalar() {
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ',' || c == '}' || std::isspace(static_cast<unsigned char>(c)) != 0) break;
      out += c;
      ++pos_;
    }
    return out;
  }

  std::string text_;
  std::size_t pos_{0};
};

/// The token of one attempt: a deadline `timeout_s` seconds from now, or
/// none for 0 (or NaN) or a budget past the clock's range.
[[nodiscard]] CellToken attempt_token(double timeout_s) {
  using Clock = CellToken::Clock;
  const std::chrono::duration<double> budget{timeout_s};
  const Clock::time_point now = Clock::now();
  if (!(timeout_s > 0.0) || budget >= Clock::time_point::max() - now) return CellToken{};
  return CellToken{now + std::chrono::duration_cast<Clock::duration>(budget)};
}

}  // namespace

void CellToken::throw_if_cancelled() const {
  if (cancelled()) throw CellTimeout{"cell cancelled: its campaign deadline passed"};
}

void write_quarantine(const std::string& path, const std::vector<QuarantinedCell>& cells) {
  std::string json = "{\n  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const QuarantinedCell& c = cells[i];
    json += i == 0 ? "\n" : ",\n";
    json += "    {\n      \"key\": \"";
    json_escape_into(json, c.key);
    json += "\",\n      \"label\": \"";
    json_escape_into(json, c.label);
    json += "\",\n      \"seed\": " + std::to_string(c.seed);
    json += ",\n      \"attempts\": " + std::to_string(c.attempts);
    json += ",\n      \"timed_out\": ";
    json += c.timed_out ? "true" : "false";
    json += ",\n      \"error\": \"";
    json_escape_into(json, c.error);
    json += "\",\n      \"config\": \"";
    json_escape_into(json, c.config_text);
    json += "\"\n    }";
  }
  json += cells.empty() ? "]\n}\n" : "\n  ]\n}\n";

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::trunc};
    if (!out) throw std::runtime_error{"write_quarantine: cannot open " + tmp};
    out << json;
    out.flush();
    if (!out) throw std::runtime_error{"write_quarantine: write failed for " + tmp};
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error{"write_quarantine: cannot rename " + tmp + " -> " + path + ": " +
                             ec.message()};
  }
}

std::vector<QuarantinedCell> load_quarantine(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"load_quarantine: cannot open " + path};
  std::stringstream buffer;
  buffer << in.rdbuf();
  return QuarantineScanner{buffer.str()}.parse();
}

void throw_if_quarantined(const CampaignReport& report, const std::string& quarantine_path) {
  if (report.quarantined.empty()) return;
  std::string msg = "sweep campaign: " + std::to_string(report.quarantined.size()) +
                    " cell(s) quarantined";
  if (!quarantine_path.empty()) msg += " (repro dumped to " + quarantine_path + ")";
  for (const QuarantinedCell& c : report.quarantined) {
    msg += "\n  " + (c.label.empty() ? c.key : c.label) + ": " +
           (c.timed_out ? "[timeout] " : "") + c.error;
  }
  throw std::runtime_error{msg};
}

Campaign::Campaign(std::vector<CampaignCell> cells, CampaignOptions options)
    : cells_{std::move(cells)}, options_{std::move(options)} {
  if (options_.retries < 0) throw std::invalid_argument{"Campaign: retries must be >= 0"};
  if (options_.cell_timeout_s < 0.0) {
    throw std::invalid_argument{"Campaign: cell_timeout_s must be >= 0"};
  }
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

  std::mutex quarantine_mutex;
  std::vector<std::pair<std::size_t, QuarantinedCell>> quarantined;  // (cell index, entry)
  // 64-bit: retries may be INT_MAX.
  const std::int64_t max_attempts = std::int64_t{1} + options_.retries;

  SweepOptions sweep = options_.sweep;
  if (!sweep.label) {
    // Default labels by CELL index (not work-queue position), so progress
    // lines stay meaningful on a resumed grid.
    std::vector<std::string> labels;
    labels.reserve(todo.size());
    for (const std::size_t i : todo) {
      labels.push_back(cells_[i].label.empty() ? "cell " + std::to_string(i) : cells_[i].label);
    }
    sweep.label = [labels](std::size_t t) { return labels[t]; };
  } else {
    auto base = sweep.label;
    std::vector<std::size_t> map = todo;
    sweep.label = [base, map](std::size_t t) { return base(map[t]); };
  }

  SweepRunner runner{sweep};
  runner.run_indexed(todo.size(), [&](std::size_t t) {
    const std::size_t i = todo[t];
    std::string error;
    bool timed_out = false;
    for (std::int64_t attempt = 1; attempt <= max_attempts; ++attempt) {
      const CellToken token = attempt_token(options_.cell_timeout_s);
      try {
        std::string payload = body(i, token);
        if (journal.is_open()) {
          const std::string line = "v1 " + hex64(fnv1a64(cells_[i].key)) + ' ' +
                                   hex64(fnv1a64(payload)) + ' ' + escape_payload(payload);
          const std::lock_guard<std::mutex> lock{journal_mutex};
          journal << line << '\n';
          journal.flush();  // a later crash must not lose this cell
        }
        report.results[i] = std::move(payload);
        return;
      } catch (const std::exception& e) {
        error = e.what();
        timed_out = token.cancelled();
      } catch (...) {
        error = "unknown exception";
        timed_out = token.cancelled();
      }
    }
    QuarantinedCell q;
    q.key = cells_[i].key;
    q.label = cells_[i].label;
    q.seed = cells_[i].seed;
    q.attempts = max_attempts;
    q.timed_out = timed_out;
    q.error = error;
    q.config_text = cells_[i].config_text;
    const std::lock_guard<std::mutex> lock{quarantine_mutex};
    quarantined.emplace_back(i, std::move(q));
  });

  // Quarantine entries land in completion order (worker-dependent); sort by
  // cell index, not key (a grid may repeat a cell), so the file and the
  // error report are deterministic.
  std::ranges::sort(quarantined, {}, &std::pair<std::size_t, QuarantinedCell>::first);
  for (auto& entry : quarantined) report.quarantined.push_back(std::move(entry.second));

  if (!options_.quarantine_path.empty()) {
    if (!report.quarantined.empty()) {
      write_quarantine(options_.quarantine_path, report.quarantined);
      std::fprintf(stderr, "[campaign] %zu cell(s) quarantined -> %s\n",
                   report.quarantined.size(), options_.quarantine_path.c_str());
    } else {
      std::error_code ec;
      fs::remove(options_.quarantine_path, ec);  // a stale file would read as loss
    }
  }
  return report;
}

}  // namespace blam
