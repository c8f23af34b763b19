// Ledger checkpoint compatibility. The ledger persists as one `ledger`
// section of the state codec; for the scripted scenario below it must carry
// exactly the values the PR-6 "blamledger v1" text held (mid-reassembly
// buffers and quarantined nodes included), restore into the columnar
// layout and re-serialize byte-exact, and the batched pipeline must
// reproduce the same bytes at every batch size. Damaged or forged sections
// end in named errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/state_codec.hpp"
#include "core/degradation_service.hpp"
#include "state_stream_edit.hpp"

namespace blam {
namespace {

// Captured verbatim from the PR-6 binary (pre-refactor degradation_service)
// running the scripted scenario replayed by feed_scripted_scenario() below.
// Do NOT regenerate with current code: it is the provenance of
// kLedgerFixture's values (LedgerFixtureCarriesThePr6Values).
constexpr const char* kPr6Fixture =
    "blamledger v1 nodes 5 maxdeg 3f609ffd3d11cc00\n"
    "counters 10 0 3 3 2 0 0 2 1 1 0\n"
    "node 1 0 1 1 3 0 4 3f58b3c9362d2a00 3fe7c610a9ef5f0f 0000000000000000 0 302400000000\n"
    "tracker 3ee8a43bb40b34e8 302400000000 3fe6666666666666 1 410a5e0000000000 4112750000000000 "
    "302400000000 4039000000000000 0\n"
    "rainflow 3 1 3ff0000000000000 3fe6666666666666 2 3feccccccccccccd 3fe0000000000000\n"
    "held 0\n"
    "node 2 1 1 1 4 0 1 3f609ffd3d11cc00 3ff0000000000000 410fa40000000000 0 388800000000\n"
    "tracker 3eded4009db4b14e 388800000000 3fe199999999999a 1 410d11e000000000 4117bb0000000000 "
    "388800000000 4039000000000000 0\n"
    "rainflow 2 1 3ff0000000000000 3fe199999999999a 2 3fe999999999999a 3fc999999999999a\n"
    "held 1\n"
    "heldrep 7 3 518400000000 3fe0000000000000 540000000000 3fc3333333333333 561600000000 "
    "3fdccccccccccccd\n"
    "node 3 2 1 1 0 3 0 3f4cd11dfcf3e400 3ff0000000000000 0000000000000000 0 21600000000\n"
    "tracker 0000000000000000 21600000000 3fe0000000000000 1 40cd87ffffffffff 40d5180000000000 "
    "21600000000 4039000000000000 0\n"
    "rainflow 0 1 bff0000000000000 3fe0000000000000 1 3feccccccccccccd\n"
    "held 0\n"
    "node 4 0 0 0 0 0 0 0000000000000000 0000000000000000 0000000000000000 0 0\n"
    "tracker 0000000000000000 0 0000000000000000 0 0000000000000000 0000000000000000 0 "
    "4039000000000000 0\n"
    "rainflow 0 0 0000000000000000 0000000000000000 0\n"
    "held 0\n"
    "node 5 0 1 1 0 0 2 3f575de1abf9c000 3fe67d036b62e68a 0000000000000000 0 302400000000\n"
    "tracker 3ed41489fac02520 302400000000 3fe51eb851eb851f 1 4109da6000000000 4112750000000000 "
    "302400000000 4039000000000000 1\n"
    "rainflow 0 1 3ff0000000000000 3fe51eb851eb851f 2 3fe6666666666666 3fd6666666666666\n"
    "held 0\n"
    "checksum a22797b94e407ad0\n";

// The same ledger as a state-codec section: kPr6Fixture's values, token for
// token in the same order (one source line per PR-6 record, wrapped). Node
// 2's record starts at value 42 and its held count is value 70 (see the
// forged-record cases below).
constexpr const char* kLedgerFixture =
    "section ledger\n"
    "u 5\nd 3f609ffd3d11cc00\n"
    "u 10\nu 0\nu 3\nu 3\nu 2\nu 0\nu 0\nu 2\nu 1\nu 1\nu 0\n"
    "u 1\nu 0\nu 1\nu 1\nu 3\nu 0\nu 4\nd 3f58b3c9362d2a00\nd 3fe7c610a9ef5f0f\n"
    "d 0000000000000000\ni 0\ni 302400000000\n"
    "d 3ee8a43bb40b34e8\ni 302400000000\nd 3fe6666666666666\nu 1\nd 410a5e0000000000\n"
    "d 4112750000000000\ni 302400000000\nd 4039000000000000\nu 0\n"
    "u 3\nu 1\nd 3ff0000000000000\nd 3fe6666666666666\nu 2\nd 3feccccccccccccd\n"
    "d 3fe0000000000000\n"
    "u 0\n"
    "u 2\nu 1\nu 1\nu 1\nu 4\nu 0\nu 1\nd 3f609ffd3d11cc00\nd 3ff0000000000000\n"
    "d 410fa40000000000\ni 0\ni 388800000000\n"
    "d 3eded4009db4b14e\ni 388800000000\nd 3fe199999999999a\nu 1\nd 410d11e000000000\n"
    "d 4117bb0000000000\ni 388800000000\nd 4039000000000000\nu 0\n"
    "u 2\nu 1\nd 3ff0000000000000\nd 3fe199999999999a\nu 2\nd 3fe999999999999a\n"
    "d 3fc999999999999a\n"
    "u 1\n"
    "u 7\nu 3\ni 518400000000\nd 3fe0000000000000\ni 540000000000\nd 3fc3333333333333\n"
    "i 561600000000\nd 3fdccccccccccccd\n"
    "u 3\nu 2\nu 1\nu 1\nu 0\nu 3\nu 0\nd 3f4cd11dfcf3e400\nd 3ff0000000000000\n"
    "d 0000000000000000\ni 0\ni 21600000000\n"
    "d 0000000000000000\ni 21600000000\nd 3fe0000000000000\nu 1\nd 40cd87ffffffffff\n"
    "d 40d5180000000000\ni 21600000000\nd 4039000000000000\nu 0\n"
    "u 0\nu 1\nd bff0000000000000\nd 3fe0000000000000\nu 1\nd 3feccccccccccccd\n"
    "u 0\n"
    "u 4\nu 0\nu 0\nu 0\nu 0\nu 0\nu 0\nd 0000000000000000\nd 0000000000000000\n"
    "d 0000000000000000\ni 0\ni 0\n"
    "d 0000000000000000\ni 0\nd 0000000000000000\nu 0\nd 0000000000000000\nd 0000000000000000\n"
    "i 0\nd 4039000000000000\nu 0\n"
    "u 0\nu 0\nd 0000000000000000\nd 0000000000000000\nu 0\n"
    "u 0\n"
    "u 5\nu 0\nu 1\nu 1\nu 0\nu 0\nu 2\nd 3f575de1abf9c000\nd 3fe67d036b62e68a\n"
    "d 0000000000000000\ni 0\ni 302400000000\n"
    "d 3ed41489fac02520\ni 302400000000\nd 3fe51eb851eb851f\nu 1\nd 4109da6000000000\n"
    "d 4112750000000000\ni 302400000000\nd 4039000000000000\nu 1\n"
    "u 0\nu 1\nd 3ff0000000000000\nd 3fe51eb851eb851f\nu 2\nd 3fe6666666666666\n"
    "d 3fd6666666666666\n"
    "u 0\n"
    "end 02fadd2006e67803\n";

std::vector<SocSample> ramp(double start_day, std::initializer_list<double> socs) {
  std::vector<SocSample> out;
  double d = start_day;
  for (double s : socs) {
    out.push_back({Time::from_days(d), s});
    d += 0.25;
  }
  return out;
}

// The exact scenario the PR-6 binary ran to produce kPr6Fixture: healthy
// node 1, gapped node 2 with a fresh post-recompute held report, quarantined
// node 3, silent node 4, crash-reset node 5.
void feed_scripted_scenario(DegradationService& svc,
                            void (DegradationService::*deliver)(std::uint32_t, std::uint16_t,
                                                                std::uint8_t,
                                                                std::span<const SocSample>)) {
  for (std::uint16_t seq = 0; seq < 4; ++seq) {
    const auto samples = ramp(seq * 1.0, {0.9 - 0.05 * seq, 0.5, 0.85 - 0.05 * seq});
    (svc.*deliver)(1, seq, report_checksum(seq, samples), samples);
  }
  const auto n2s0 = ramp(0.0, {0.8, 0.4, 0.75});
  (svc.*deliver)(2, 0, report_checksum(0, n2s0), n2s0);
  const auto n2s2 = ramp(2.0, {0.7, 0.3, 0.65});
  (svc.*deliver)(2, 2, report_checksum(2, n2s2), n2s2);  // held
  const auto n2s4 = ramp(4.0, {0.6, 0.2, 0.55});
  (svc.*deliver)(2, 4, report_checksum(4, n2s4), n2s4);  // held too
  const auto n3s0 = ramp(0.0, {0.9, 0.5});
  (svc.*deliver)(3, 0, report_checksum(0, n3s0), n3s0);
  for (int k = 0; k < 3; ++k) {
    const auto bad = ramp(1.0 + k, {0.8, 0.4});
    (svc.*deliver)(3, static_cast<std::uint16_t>(1 + k),
                   static_cast<std::uint8_t>(report_checksum(static_cast<std::uint16_t>(1 + k),
                                                             bad) ^
                                             0x5a),
                   bad);
  }
  svc.register_node(4);
  const auto n5s0 = ramp(0.0, {0.85, 0.45, 0.8});
  (svc.*deliver)(5, 900, report_checksum(900, n5s0), n5s0);
  const auto n5s1 = ramp(3.0, {0.7, 0.35, 0.66});
  (svc.*deliver)(5, 0, report_checksum(0, n5s1), n5s1);  // far jump: reboot
  svc.recompute(Time::from_days(3.0));
  const auto n2s7 = ramp(6.0, {0.5, 0.15, 0.45});
  (svc.*deliver)(2, 7, report_checksum(7, n2s7), n2s7);  // held post-recompute
}

std::string checkpoint_text(DegradationService& svc) {
  std::ostringstream out;
  StateWriter w{out};
  svc.checkpoint_state(w);
  return out.str();
}

void restore_text(DegradationService& svc, const std::string& text) {
  StateReader r{text};
  svc.restore_state(r);
}

/// The runtime_error message restoring `text` into a fresh service ends in
/// ("" when it restores).
std::string restore_error(const std::string& text) {
  DegradationService svc{DegradationModel{}, 25.0};
  try {
    restore_text(svc, text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// kLedgerFixture with value line `index` (0-based, the section line not
/// counted) replaced by `replacement` and the section hash recomputed.
/// `expected` pins which value the index points at.
std::string forged(std::size_t index, std::string_view expected, std::string_view replacement) {
  std::vector<std::string> lines = stream_edit::split_lines(kLedgerFixture);
  std::string& line = lines.at(index + 1);
  EXPECT_EQ(line, std::string{expected} + "\n") << "value " << index;
  line = std::string{replacement} + "\n";
  return stream_edit::reseal(stream_edit::join_lines(lines));
}

TEST(LedgerCheckpoint, LedgerFixtureCarriesThePr6Values) {
  // Every value word of the PR-6 text (record tags and its checksum trailer
  // dropped) against every value token of the section, in order.
  const std::vector<std::string> tags = {"blamledger", "v1",       "nodes", "maxdeg",
                                         "counters",   "node",     "tracker",
                                         "rainflow",   "held",     "heldrep"};
  std::vector<std::string> pr6;
  std::istringstream words{kPr6Fixture};
  for (std::string word; words >> word && word != "checksum";) {
    if (std::find(tags.begin(), tags.end(), word) == tags.end()) pr6.push_back(word);
  }
  std::vector<std::string> section;
  for (const std::string& line : stream_edit::split_lines(kLedgerFixture)) {
    if (line.starts_with("section ") || line.starts_with("end ")) continue;
    section.push_back(line.substr(2, line.size() - 3));  // drop the tag and the newline
  }
  EXPECT_EQ(pr6.size(), 163u);
  EXPECT_EQ(section, pr6);
}

TEST(LedgerCheckpoint, Pr6FixtureRoundTripsByteExact) {
  DegradationService svc{DegradationModel{}, 25.0};
  restore_text(svc, kLedgerFixture);

  // The restored ledger carries the full PR-6 semantics, not just bytes.
  EXPECT_EQ(svc.node_count(), 5u);
  EXPECT_EQ(svc.health(1), LedgerHealth::kHealthy);
  EXPECT_EQ(svc.health(2), LedgerHealth::kGapped);
  EXPECT_EQ(svc.health(3), LedgerHealth::kQuarantined);
  EXPECT_EQ(svc.health(4), LedgerHealth::kHealthy);
  EXPECT_GT(svc.estimated_gap_seconds(2), 0.0);
  EXPECT_EQ(svc.normalized_degradation(3), 1.0);  // conservative prior
  EXPECT_EQ(svc.counters().reports_accepted, 10u);
  EXPECT_EQ(svc.counters().reports_checksum_rejected, 3u);
  EXPECT_EQ(svc.counters().reports_buffered, 3u);
  EXPECT_EQ(svc.counters().reports_reassembled, 2u);
  EXPECT_EQ(svc.counters().gaps_bridged, 2u);
  EXPECT_EQ(svc.counters().discontinuities, 1u);
  EXPECT_EQ(svc.counters().quarantines, 1u);

  // Byte-exact re-serialization, mid-reassembly buffer and all.
  EXPECT_EQ(checkpoint_text(svc), kLedgerFixture);
}

TEST(LedgerCheckpoint, CurrentPipelineReproducesPr6Bytes) {
  // Replaying the scripted scenario through today's synchronous path must
  // land on the PR-6 values exactly: the refactors changed the layout and
  // the encoding, not one bit of the arithmetic.
  DegradationService svc{DegradationModel{}, 25.0};
  feed_scripted_scenario(svc, &DegradationService::ingest_report);
  EXPECT_EQ(checkpoint_text(svc), kLedgerFixture);
}

TEST(LedgerCheckpoint, BatchSizeDoesNotChangeTheBytes) {
  DegradationService sync{DegradationModel{}, 25.0};
  feed_scripted_scenario(sync, &DegradationService::ingest_report);

  for (const std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{4096}}) {
    DegradationService svc{DegradationModel{}, 25.0};
    svc.set_ingest_batch(batch);
    feed_scripted_scenario(svc, &DegradationService::enqueue_report);
    svc.drain_queue();
    EXPECT_EQ(checkpoint_text(svc), checkpoint_text(sync)) << "batch " << batch;
    EXPECT_EQ(checkpoint_text(svc), kLedgerFixture) << "batch " << batch;
  }
}

TEST(LedgerCheckpoint, CheckpointDrainsStagedReports) {
  // A checkpoint taken with reports still staged folds them in first and
  // reads exactly like one taken after an explicit drain (drain order is
  // arrival order either way).
  DegradationService drained{DegradationModel{}, 25.0};
  drained.set_ingest_batch(100);  // nothing drains on its own
  const auto samples = ramp(0.0, {0.9, 0.5});
  drained.enqueue_report(1, 0, report_checksum(0, samples), samples);
  EXPECT_EQ(drained.drain_queue(), 1u);
  const std::string expected = checkpoint_text(drained);

  DegradationService svc{DegradationModel{}, 25.0};
  svc.set_ingest_batch(100);
  svc.enqueue_report(1, 0, report_checksum(0, samples), samples);
  ASSERT_EQ(svc.counters().reports_accepted, 0u);  // still staged
  EXPECT_EQ(checkpoint_text(svc), expected);
  EXPECT_EQ(svc.drain_queue(), 0u);

  // Restore still refuses a non-empty queue: staged reports would be
  // silently destroyed by the rebuild.
  svc.enqueue_report(1, 1, report_checksum(1, samples), samples);
  EXPECT_THROW(restore_text(svc, kLedgerFixture), std::logic_error);
}

TEST(LedgerCheckpoint, IngestBatchMustBePositive) {
  DegradationService svc{DegradationModel{}, 25.0};
  EXPECT_THROW(svc.set_ingest_batch(0), std::invalid_argument);
  svc.set_ingest_batch(7);
  EXPECT_EQ(svc.ingest_batch(), 7u);
}

TEST(LedgerCheckpoint, RestoreRejectsTamperedFixture) {
  // Flip one hex digit in a tracker value: the section hash must catch it.
  std::string tampered{kLedgerFixture};
  const auto pos = tampered.find("3fe6666666666666");
  ASSERT_NE(pos, std::string::npos);
  tampered[pos + 3] = '5';
  EXPECT_EQ(restore_error(tampered),
            "state codec: checksum mismatch in section 'ledger' (corrupted or truncated "
            "checkpoint)");
}

TEST(LedgerCheckpoint, RestoreRejectsHeldOverflow) {
  // A forged checkpoint claiming more held reports than the reorder depth
  // cannot be represented in the fixed-slot layout and must be refused,
  // even behind a valid section hash.
  EXPECT_EQ(restore_error(forged(70, "u 1", "u 9")), "ledger checkpoint: held buffer overflow");
}

TEST(LedgerCheckpoint, RestoreNamesEachDamage) {
  ASSERT_EQ(restore_error(kLedgerFixture), "");
  struct Case {
    const char* name;
    std::string text;
    const char* message;
  };
  const std::string fixture{kLedgerFixture};
  const Case cases[] = {
      {"the PR-6 text itself", kPr6Fixture,
       "state codec: expected 'section ledger', got 'blamledger v1 nodes 5"},
      {"wrong section name", stream_edit::reseal("section ledgr" + fixture.substr(14)),
       "state codec: expected 'section ledger', got 'section ledgr'"},
      {"truncated", fixture.substr(0, fixture.size() / 2),
       "state codec: unexpected end of checkpoint in section 'ledger'"},
      {"duplicate node record", forged(42, "u 2", "u 1"),
       "ledger checkpoint: duplicate node record"},
      {"health out of range", forged(43, "u 1", "u 4"), "ledger checkpoint: health out of range"},
      {"node id out of range", forged(13, "u 1", "u 4294967296"),
       "ledger checkpoint: node id out of range"},
      {"report sequence out of range", forged(17, "u 3", "u 65536"),
       "ledger checkpoint: report sequence out of range"},
      {"trailing data", forged(0, "u 5", "u 4"), "ledger checkpoint: trailing data"},
      {"record cut short", forged(0, "u 5", "u 6"),
       "state codec: expected 'u ...' in section 'ledger', got 'end "},
      // Forged counts run into the next record, not into the allocator.
      {"forged rainflow depth", forged(38, "u 2", "u 18446744073709551615"),
       "state codec: expected 'd ...' in section 'ledger', got 'u 0'"},
      {"forged held sample count", forged(72, "u 3", "u 4611686018427387904"),
       "state codec: expected 'i ...' in section 'ledger', got 'u 3'"},
  };
  for (const Case& c : cases) {
    const std::string message = restore_error(c.text);
    EXPECT_EQ(message.rfind(c.message, 0), 0u)
        << c.name << ": got '" << message << "', want prefix '" << c.message << "'";
  }
}

}  // namespace
}  // namespace blam
