// Seeded mutation fuzzing of the one state reader. Four real streams are
// damaged over and over: a faulted two-slice engine checkpoint ("blamsim"
// magic line plus every component's sections), the same engine audited
// (each slice ending in an `audit` section), a standalone gateway ledger
// section, and a scenario grid's `experiment` journal payload. Every mutant
// must either restore or end in a named std::runtime_error; any other
// exception fails the test, and a crash or a sanitizer report fails the run
// (the suite also runs under ASan/UBSan).
//
// Mutations: truncation at a random byte, dropping or swapping whole
// sections, bit flips, and "resealed" edits that change, delete or
// duplicate one value line and then recompute every section hash (and,
// for an edit inside a slice, the engine stream's slice offset table), so
// the damage gets past the FNV trailers and reaches the readers' semantic
// checks. A deterministic sweep then sets each unsigned value in turn to
// 2^62 (resealed), so every count in the stream is forged at least once.
// Hand-made forgeries then aim at the "blamsim v3" additions: the offset
// table in the meta section and the sparse histogram rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <exception>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/state_codec.hpp"
#include "core/degradation_service.hpp"
#include "env_guard.hpp"
#include "net/experiment.hpp"
#include "sim/shard_engine.hpp"
#include "state_stream_edit.hpp"

namespace blam {
namespace {

using stream_edit::join_lines;
using stream_edit::rehash;
using stream_edit::reseal;
using stream_edit::split_lines;

// kResealedEdit last: the four others are picked by index.
enum class Mutation { kTruncate, kDropSection, kSwapSections, kBitFlip, kResealedEdit };
constexpr std::array<const char*, 5> kMutationNames = {"truncate", "drop-section",
                                                       "swap-sections", "bit-flip",
                                                       "resealed-edit"};

/// Line ranges [first, last] of every section (its `section` and `end`
/// lines included).
std::vector<std::pair<std::size_t, std::size_t>> sections_of(
    const std::vector<std::string>& lines) {
  std::vector<std::pair<std::size_t, std::size_t>> sections;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].starts_with("section ")) sections.emplace_back(i, i);
    if (lines[i].starts_with("end ") && !sections.empty()) sections.back().second = i;
  }
  return sections;
}

/// A replacement payload for a value line tagged `tag` whose payload was
/// `old`: boundary values, off-by-one neighbours, and malformed text.
std::string edited_payload(char tag, const std::string& old, Rng& rng) {
  static const std::vector<std::string> kUnsigned = {
      "0", "1", "2", "3", "4", "5", "7", "9", "255", "256", "65535", "65536", "4294967295",
      "4294967296", "9007199254740993", "9223372036854775807", "9223372036854775808",
      "18446744073709551615"};
  static const std::vector<std::string> kSigned = {
      "0", "-1", "1", "-86400000000", "86400000000000", "-9223372036854775808",
      "9223372036854775807"};
  static const std::vector<std::string> kDouble = {
      "0000000000000000", "8000000000000000", "7ff8000000000000", "7ff0000000000000",
      "fff0000000000000", "7fefffffffffffff", "bff0000000000000", "3fe0000000000000",
      "0000000000000001", "4415af1d78b58c40"};
  static const std::vector<std::string> kMalformed = {"", "x", "-", "1 2", "+1",
                                                      "99999999999999999999999"};
  const auto pick = [&](const std::vector<std::string>& pool) {
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };
  if (rng.uniform() < 0.1) return pick(kMalformed);
  if (tag == 'u' || tag == 'i') {
    if (rng.uniform() < 0.4) {
      // Neighbours of the original value reach "off by one" semantics (an
      // existing id, a count that runs one token long or short). Wrapping
      // unsigned arithmetic keeps the extremes defined.
      std::uint64_t bits = 0;
      if (tag == 'u') {
        std::istringstream{old} >> bits;
      } else {
        std::int64_t value = 0;
        std::istringstream{old} >> value;
        bits = static_cast<std::uint64_t>(value);
      }
      bits += rng.uniform() < 0.5 ? 1 : std::numeric_limits<std::uint64_t>::max();
      return tag == 'u' ? std::to_string(bits) : std::to_string(static_cast<std::int64_t>(bits));
    }
    return pick(tag == 'u' ? kUnsigned : kSigned);
  }
  if (tag == 'd') return pick(kDouble);
  return old + pick(kMalformed);
}

class StreamMutator {
 public:
  StreamMutator(std::string original, std::uint64_t seed)
      : original_{std::move(original)},
        lines_{split_lines(original_)},
        sections_{sections_of(lines_)},
        rng_{seed, 0x5eed} {}

  [[nodiscard]] std::string mutate(Mutation kind) {
    switch (kind) {
      case Mutation::kTruncate:
        return original_.substr(0, index(original_.size()));
      case Mutation::kDropSection: {
        const auto [first, last] = sections_[index(sections_.size())];
        std::vector<std::string> lines = lines_;
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(first),
                    lines.begin() + static_cast<std::ptrdiff_t>(last) + 1);
        return join_lines(lines);
      }
      case Mutation::kSwapSections: {
        std::size_t a = index(sections_.size());
        std::size_t b = index(sections_.size());
        if (a > b) std::swap(a, b);
        const auto [a_first, a_last] = sections_[a];
        const auto [b_first, b_last] = sections_[b];
        if (a == b) return original_;
        std::vector<std::string> lines = lines_;
        const auto at = [&](std::size_t line) {
          return lines.begin() + static_cast<std::ptrdiff_t>(line);
        };
        const std::size_t b_size = b_last - b_first + 1;
        std::rotate(at(a_first), at(b_first), at(b_last + 1));  // B, A, between
        std::rotate(at(a_first + b_size), at(a_first + b_size + (a_last - a_first + 1)),
                    at(b_last + 1));  // B, between, A
        return join_lines(lines);
      }
      case Mutation::kBitFlip: {
        std::string text = original_;
        const int flips = static_cast<int>(rng_.uniform_int(1, 3));
        for (int f = 0; f < flips; ++f) {
          text[index(text.size())] ^= static_cast<char>(1 << rng_.uniform_int(0, 7));
        }
        return text;
      }
      case Mutation::kResealedEdit: {
        std::vector<std::string> lines = lines_;
        const auto [first, last] = sections_[index(sections_.size())];
        // An edit of the meta section keeps the offset table as edited.
        const auto seal = lines[first] == "section meta\n" ? rehash : reseal;
        if (last - first < 2) return seal(join_lines(lines));  // no value lines
        const std::size_t at = first + 1 + index(last - first - 1);
        const double mode = rng_.uniform();
        if (mode < 0.1) {
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
        } else if (mode < 0.2) {
          const std::string copy = lines[at];
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), copy);
        } else if (mode < 0.25) {
          lines[at] = "uid"[index(3)] + lines[at].substr(1);  // retag the value
        } else {
          const std::string& line = lines[at];
          const std::string old = line.substr(2, line.size() - 3);
          lines[at] = line.substr(0, 2) + edited_payload(line[0], old, rng_) + "\n";
        }
        return seal(join_lines(lines));
      }
    }
    return original_;
  }

 private:
  [[nodiscard]] std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  std::string original_;
  std::vector<std::string> lines_;
  std::vector<std::pair<std::size_t, std::size_t>> sections_;
  Rng rng_;
};

/// What the mutants of one stream ended in.
struct Tally {
  int restored{0};
  /// runtime_error messages, with the digits dropped so messages that
  /// differ only in an echoed value count as one.
  std::map<std::string, int> errors;
};

/// The tally key of an error: its first 80 characters without digits.
std::string without_digits(const std::string& message) {
  std::string out;
  for (const char c : message.substr(0, 80)) {
    if (c < '0' || c > '9') out += c;
  }
  return out;
}

using Restore = std::function<void(const std::string&)>;

/// Restores `text` and fails the test on any outcome other than a completed
/// restore or a named std::runtime_error; `what` names the mutant.
void check(const std::string& text, const Restore& restore, Tally& tally,
           const std::string& what) {
  try {
    restore(text);
    ++tally.restored;
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    if (message.empty()) ADD_FAILURE() << "unnamed runtime_error, " << what;
    ++tally.errors[without_digits(message)];
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " threw a non-runtime_error: " << e.what();
  }
}

/// `mutants` seeded mutants of `original`, half of them resealed edits:
/// those are the ones that reach past the hashes into the readers' checks.
Tally fuzz(const std::string& original, int mutants, std::uint64_t seed, const Restore& restore) {
  StreamMutator mutator{original, seed};
  Tally tally;
  for (int m = 0; m < mutants; ++m) {
    const auto kind = m % 2 == 0 ? Mutation::kResealedEdit : static_cast<Mutation>((m / 2) % 4);
    check(mutator.mutate(kind), restore, tally,
          std::string{kMutationNames[static_cast<std::size_t>(kind)]} + " mutant " +
              std::to_string(m) + " (seed " + std::to_string(seed) + ")");
  }
  return tally;
}

/// Every unsigned value of `original` in turn set to 2^62 and resealed:
/// whichever of them are counts, none may pre-size a container. The meta
/// section's values (the offset table among them) keep the forged value.
void sweep_counts(const std::string& original, const Restore& restore, Tally& tally) {
  const std::vector<std::string> lines = split_lines(original);
  bool in_meta = false;
  for (std::size_t at = 0; at < lines.size(); ++at) {
    if (lines[at].starts_with("section ")) in_meta = lines[at] == "section meta\n";
    if (!lines[at].starts_with("u ")) continue;
    std::vector<std::string> edited = lines;
    edited[at] = "u 4611686018427387904\n";
    const std::string text = join_lines(edited);
    check(in_meta ? rehash(text) : reseal(text), restore, tally,
          "count sweep, line " + std::to_string(at));
  }
}

/// Errors whose message starts with `prefix`, summed over the tally.
int count_errors(const Tally& tally, const std::string& prefix) {
  int n = 0;
  for (const auto& [message, count] : tally.errors) {
    if (message.starts_with(prefix)) n += count;
  }
  return n;
}

std::vector<SocSample> ramp(double start_day, std::initializer_list<double> socs) {
  std::vector<SocSample> out;
  double d = start_day;
  for (const double s : socs) {
    out.push_back({Time::from_days(d), s});
    d += 0.25;
  }
  return out;
}

/// A small faulted ledger: healthy, gapped (with held reports) and
/// quarantined nodes, a crash reset, and a report parked across the
/// recompute.
std::string ledger_stream() {
  DegradationService svc{DegradationModel{}, 25.0};
  const auto deliver = [&](std::uint32_t node, std::uint16_t seq, std::uint8_t crc_flip,
                           const std::vector<SocSample>& samples) {
    const auto crc = static_cast<std::uint8_t>(report_checksum(seq, samples) ^ crc_flip);
    svc.ingest_report(node, seq, crc, samples);
  };
  for (std::uint32_t node = 1; node <= 6; ++node) {
    for (std::uint16_t seq = 0; seq < 4; ++seq) {
      if (node == 2 && seq == 1) continue;  // lost: seq 2 and 3 wait in the buffer
      const std::uint8_t flip = node == 3 && seq > 0 ? 0x5a : 0;  // quarantined
      deliver(node, node == 5 && seq == 3 ? 900 : seq, flip,
              ramp(seq + 0.1 * node, {0.9 - 0.05 * seq, 0.4, 0.8}));
    }
  }
  svc.recompute(Time::from_days(4.0));
  deliver(4, 6, 0, ramp(5.0, {0.7, 0.2, 0.6}));  // held across the checkpoint
  std::ostringstream out;
  StateWriter w{out};
  svc.checkpoint_state(w);
  return out.str();
}

TEST(StateFuzz, LedgerStreamMutantsRestoreOrNameTheirError) {
  const std::string original = ledger_stream();
  const auto restore = [](const std::string& text) {
    StateReader r{text};
    DegradationService svc{DegradationModel{}, 25.0};
    svc.restore_state(r);
  };
  ASSERT_NO_THROW(restore(original));

  Tally tally = fuzz(original, 8000, 20261017, restore);
  sweep_counts(original, restore, tally);
  EXPECT_GT(tally.restored, 0);
  // The resealed edits must get past the section hash and reach every
  // semantic check of the ledger reader.
  for (const char* check : {"ledger checkpoint: duplicate node record",
                            "ledger checkpoint: health out of range",
                            "ledger checkpoint: held buffer overflow",
                            "ledger checkpoint: trailing data"}) {
    EXPECT_GT(count_errors(tally, check), 0) << check;
  }
  EXPECT_GT(count_errors(tally, "state codec: checksum mismatch"), 0);
  EXPECT_GT(count_errors(tally, "state codec: unexpected end of checkpoint"), 0);
}

/// A small faulted two-slice city: every cell its own collision domain.
ScenarioConfig fuzz_city() {
  ScenarioConfig c;
  c.policy = PolicyKind::kBlam;
  c.theta = 0.5;
  c.n_nodes = 6;
  c.n_gateways = 2;
  c.gateway_grid_pitch_m = 12000.0;
  c.cluster_radius_m = 1000.0;
  c.interference_floor_dbm = -143.0;
  c.sf_assignment = SfAssignment::kDistanceBased;
  c.shards = 2;
  c.seed = 33;
  c.faults.outage_daily_start = Time::from_hours(9.0);
  c.faults.outage_daily_duration = Time::from_hours(2.0);
  c.faults.ack_loss_good = 0.02;
  c.faults.ack_loss_bad = 0.8;
  c.faults.crash_per_year = 24.0;
  c.faults.report_loss = 0.1;
  c.faults.report_reorder = 0.2;
  c.faults.report_corrupt = 0.05;
  c.label = c.policy_label();
  return c;
}

/// The fuzz city's engine at an instant with an uplink in flight, so a
/// gateway section carries a live reception (its air packet and its uplink
/// frame with a SoC report) for the mutants to damage.
void run_to_fuzz_instant(ShardedNetwork& engine) {
  engine.run_until(Time::from_seconds(92045.1));
}

std::string checkpoint_text(ShardedNetwork& engine) {
  std::ostringstream out;
  engine.checkpoint(out);
  return std::move(out).str();
}

/// Restores `text` into a fresh fuzz-city engine; the runtime_error's
/// message, or "" when the restore succeeds.
std::string engine_restore_error(const std::string& text, const ScenarioConfig& c,
                                 const std::shared_ptr<const SolarTrace>& trace) {
  std::istringstream in{text};
  ShardedNetwork engine{c, trace};
  try {
    engine.restore(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(StateFuzz, EngineStreamMutantsRestoreOrNameTheirError) {
  const ScenarioConfig c = fuzz_city();
  const auto trace = build_shared_trace(c);

  std::string original;
  {
    ShardedNetwork engine{c, trace};
    ASSERT_EQ(engine.plan().effective, 2);
    run_to_fuzz_instant(engine);
    original = checkpoint_text(engine);
  }
  const auto restore = [&](const std::string& text) {
    std::istringstream in{text};
    ShardedNetwork engine{c, trace};
    engine.restore(in);
  };
  ASSERT_NO_THROW(restore(original));

  Tally tally = fuzz(original, 6000, 20261018, restore);
  sweep_counts(original, restore, tally);
  EXPECT_GT(tally.restored, 0);
  // Damage reaches the hashes, the engine's shape checks, the components'
  // own checks and the ledger section inside the stream.
  for (const char* check :
       {"state codec: checksum mismatch", "restore: checkpoint", "Node::restore_state:",
        "Gateway::restore_state:", "ledger checkpoint:"}) {
    EXPECT_GT(count_errors(tally, check), 0) << check;
  }
}

TEST(StateFuzz, AuditedEngineStreamMutantsRestoreOrNameTheirError) {
  // The same city audited: every slice's stream ends in an `audit` section
  // (ledger rows, counts, recorded violations) that damage must reach too.
  const EnvGuard audit{"BLAM_AUDIT", "1"};
  const ScenarioConfig c = fuzz_city();
  const auto trace = build_shared_trace(c);

  std::string original;
  {
    ShardedNetwork engine{c, trace};
    ASSERT_EQ(engine.plan().effective, 2);
    run_to_fuzz_instant(engine);
    original = checkpoint_text(engine);
  }
  ASSERT_NE(original.find("\nsection audit\n"), std::string::npos);
  const auto restore = [&](const std::string& text) {
    std::istringstream in{text};
    ShardedNetwork engine{c, trace};
    engine.restore(in);
  };
  ASSERT_NO_THROW(restore(original));

  Tally tally = fuzz(original, 3000, 20261019, restore);
  sweep_counts(original, restore, tally);
  EXPECT_GT(tally.restored, 0);
  for (const char* check : {"state codec: checksum mismatch", "audit checkpoint: ledger rows",
                            "audit checkpoint: more violations",
                            "restore: checkpoint and this run differ in auditing"}) {
    EXPECT_GT(count_errors(tally, check), 0) << check;
  }
}

TEST(StateFuzz, ExperimentPayloadMutantsDecodeOrNameTheirError) {
  // A scenario grid's journal payload: the faulted fuzz city's result after
  // a day, so the fault, ledger and window rows all carry counts.
  const ScenarioConfig c = fuzz_city();
  const std::string original = serialize_experiment_result(run_scenario(c, Time::from_days(1.0)));
  const auto restore = [](const std::string& text) { (void)deserialize_experiment_result(text); };
  ASSERT_EQ(serialize_experiment_result(deserialize_experiment_result(original)), original);

  Tally tally = fuzz(original, 4000, 20261019, restore);
  sweep_counts(original, restore, tally);
  // The node count, forged: section, label, event count, outage, 11 ledger
  // counters and the serial reason precede it.
  constexpr std::size_t kNodeCount = 16;
  const std::vector<std::string> lines = split_lines(original);
  ASSERT_EQ(lines.at(kNodeCount), "u " + std::to_string(c.n_nodes) + "\n");
  for (const std::uint64_t forged : {std::uint64_t{0}, std::uint64_t{5}, std::uint64_t{7},
                                     std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
    std::vector<std::string> edited = lines;
    edited[kNodeCount] = "u " + std::to_string(forged) + "\n";
    const int errors = count_errors(tally, "");
    check(reseal(join_lines(edited)), restore, tally, "node count " + std::to_string(forged));
    EXPECT_EQ(count_errors(tally, ""), errors + 1) << "node count " << forged << " decoded";
  }
  EXPECT_GT(tally.restored, 0);
  for (const char* check :
       {"state codec: checksum mismatch", "state codec: unexpected end of checkpoint",
        "deserialize_experiment_result: window count out of range",
        "node metrics: window histogram: sparse row"}) {
    EXPECT_GT(count_errors(tally, check), 0) << check;
  }
}

/// `text` with the `index`-th value line of its meta section replaced by
/// `u <value>`, the hashes resealed but the offset table left as edited.
std::string with_meta_value(const std::string& text, std::size_t index, std::uint64_t value) {
  std::vector<std::string> lines = split_lines(text);
  lines.at(2 + index) = "u " + std::to_string(value) + "\n";
  return rehash(join_lines(lines));
}

TEST(StateFuzz, OffsetTableForgeriesNameTheirError) {
  // The meta section's last two values are the slices' byte lengths; they
  // must tile the rest of the stream exactly before any slice is parsed.
  const ScenarioConfig c = fuzz_city();
  const auto trace = build_shared_trace(c);
  std::string original;
  {
    ShardedNetwork engine{c, trace};
    run_to_fuzz_instant(engine);
    original = checkpoint_text(engine);
  }
  ASSERT_EQ(engine_restore_error(original, c, trace), "");
  const std::vector<std::string> lines = split_lines(original);
  // magic, `section meta`, seed, fleet size, serial flag, slice count, cursor.
  constexpr std::size_t kTable = 5;
  ASSERT_EQ(lines.at(2 + kTable - 1).substr(0, 2), "i ") << "the cursor precedes the table";
  const std::uint64_t first = std::stoull(lines.at(2 + kTable).substr(2));
  const std::uint64_t second = std::stoull(lines.at(2 + kTable + 1).substr(2));
  const std::size_t body = original.size() - original.find("section clock\n");
  ASSERT_EQ(first + second, body);

  const std::string past_end =
      "restore: checkpoint offset table runs past the end of the stream";
  const std::string short_sum = "restore: checkpoint offset table covers " +
                                std::to_string(body - 1) + " of the " + std::to_string(body) +
                                " slice bytes";
  struct Forgery {
    const char* what;
    std::string text;
    std::string error;
  };
  const std::vector<Forgery> forgeries = {
      {"a length past the end", with_meta_value(original, kTable + 1, body), past_end},
      {"2^62", with_meta_value(original, kTable, std::uint64_t{1} << 62), past_end},
      {"a zero length", with_meta_value(original, kTable, 0),
       "restore: checkpoint offset table gives slice 0 no bytes"},
      {"a sum one short", with_meta_value(original, kTable + 1, second - 1), short_sum},
      {"a sum one long", with_meta_value(original, kTable + 1, second + 1), past_end},
  };
  for (const Forgery& f : forgeries) {
    EXPECT_EQ(engine_restore_error(f.text, c, trace), f.error) << f.what;
  }

  // A boundary moved with the sum kept: the slices' own readers catch it.
  const std::string moved =
      with_meta_value(with_meta_value(original, kTable, first + 2), kTable + 1, second - 2);
  EXPECT_NE(engine_restore_error(moved, c, trace), "");
  const std::string shrunk =
      with_meta_value(with_meta_value(original, kTable, first - 2), kTable + 1, second + 2);
  EXPECT_NE(engine_restore_error(shrunk, c, trace), "");
}

/// `node`'s retransmission block as Node::checkpoint_state writes it: the
/// window count, then one sparse row per window.
std::string retx_block(const Node& node) {
  const RetxEstimator& e = node.retx_estimator();
  std::string block = "u " + std::to_string(e.max_windows()) + "\n";
  for (std::size_t t = 0; t < e.max_windows(); ++t) {
    const std::span<const std::uint32_t> row = e.retx_counts(t);
    std::string pairs;
    int nonzero = 0;
    for (std::size_t r = 0; r < row.size(); ++r) {
      if (row[r] == 0) continue;
      ++nonzero;
      pairs += "u " + std::to_string(r) + "\nu " + std::to_string(row[r]) + "\n";
    }
    block += "u " + std::to_string(nonzero) + "\n" + pairs;
  }
  return block;
}

TEST(StateFuzz, SparseRowForgeriesNameTheirError) {
  // Each way a sparse histogram row can be malformed, forged into a real
  // node's retransmission rows and resealed (hashes and offset table), so
  // only Node::restore_state's own checks stand in the way.
  const ScenarioConfig c = fuzz_city();
  const auto trace = build_shared_trace(c);
  std::string original;
  std::string block;
  {
    ShardedNetwork engine{c, trace};
    run_to_fuzz_instant(engine);
    original = checkpoint_text(engine);
    for (const Node& node : engine.slice(0).nodes()) {
      const RetxEstimator& e = node.retx_estimator();
      for (std::size_t t = 0; t < e.max_windows() && block.empty(); ++t) {
        for (const std::uint32_t count : e.retx_counts(t)) {
          if (count > 0) block = retx_block(node);
        }
      }
      if (!block.empty()) break;
    }
  }
  ASSERT_FALSE(block.empty()) << "no node in slice 0 recorded a retransmission window";
  const std::size_t at = original.find(block);
  ASSERT_NE(at, std::string::npos);

  // The block's lines; the first row with a pair starts at `row`.
  std::vector<std::string> rows = split_lines(block);
  std::size_t row = 1;
  while (rows.at(row) == "u 0\n") ++row;
  const auto forged = [&](const std::vector<std::string>& edited) {
    return reseal(original.substr(0, at) + join_lines(edited) +
                  original.substr(at + block.size()));
  };
  const auto edit = [&](std::size_t line, const std::string& value) {
    std::vector<std::string> edited = rows;
    edited.at(line) = value;
    return forged(edited);
  };
  const std::string bucket = rows.at(row + 1);
  const std::string count = rows.at(row + 2);
  std::vector<std::string> repeated = rows;
  repeated.at(row) = "u " + std::to_string(std::stoull(rows.at(row).substr(2)) + 1) + "\n";
  repeated.insert(repeated.begin() + static_cast<std::ptrdiff_t>(row) + 3, {bucket, count});

  const std::string prefix = "Node::restore_state: retx histogram: sparse row ";
  EXPECT_EQ(engine_restore_error(edit(row + 1, "u 8\n"), c, trace),
            prefix + "index past its width");
  EXPECT_EQ(engine_restore_error(forged(repeated), c, trace),
            prefix + "indices out of order or repeated");
  EXPECT_EQ(engine_restore_error(edit(row + 2, "u 0\n"), c, trace),
            prefix + "carries a zero count");
  EXPECT_EQ(engine_restore_error(edit(row, "u 9\n"), c, trace),
            prefix + "has more entries than its width");
  // A well-formed pair whose count does not fit a u32 bucket.
  EXPECT_EQ(engine_restore_error(edit(row + 2, "u 4294967296\n"), c, trace),
            "Node::restore_state: retx histogram: count above 2^32-1");
  // The untouched block restores, so each error above is the forgery's.
  EXPECT_EQ(engine_restore_error(forged(rows), c, trace), "");
}

}  // namespace
}  // namespace blam
