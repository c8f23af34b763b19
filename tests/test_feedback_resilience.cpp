// Hardened feedback-pipe tests: report checksum integrity, sequence-based
// dedup/reassembly, gap bridging, crash-reset discontinuities, ledger
// health (quarantine/recovery), checkpoint/restore, report-fault channel
// determinism, the feedback-consistency audit, and the fault-plan
// parameter validation edges for the report channel and Gilbert-Elliott.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "common/state_codec.hpp"
#include "core/degradation_service.hpp"
#include "fault/fault_plan.hpp"
#include "fault/gilbert_elliott.hpp"
#include "fault/report_channel.hpp"
#include "net/network.hpp"
#include "net/scenario.hpp"

namespace blam {
namespace {

/// One report per day, two samples each (t, t+12h), SoC from `soc(day)`.
template <typename SocFn>
std::vector<std::vector<SocSample>> daily_reports(int days, SocFn soc) {
  std::vector<std::vector<SocSample>> reports;
  for (int d = 0; d < days; ++d) {
    reports.push_back({{Time::from_days(d), soc(d)}, {Time::from_days(d + 0.5), soc(d)}});
  }
  return reports;
}

/// Delivers `reports[i]` as report_seq = i+1 with a valid checksum.
void deliver(DegradationService& svc, std::uint32_t node, std::size_t index,
             const std::vector<std::vector<SocSample>>& reports) {
  const auto seq = static_cast<std::uint16_t>(index + 1);
  svc.ingest_report(node, seq, report_checksum(seq, reports[index]), reports[index]);
}

TEST(ReportChecksum, DeterministicAndSensitive) {
  const std::vector<SocSample> samples = {{Time::from_hours(1.0), 0.75},
                                          {Time::from_hours(2.0), 0.5}};
  const std::uint8_t crc = report_checksum(7, samples);
  EXPECT_EQ(crc, report_checksum(7, samples));

  EXPECT_NE(crc, report_checksum(8, samples));  // seq covered

  auto soc_flip = samples;
  soc_flip[1].soc = std::nextafter(soc_flip[1].soc, 1.0);  // single-ULP change
  EXPECT_NE(crc, report_checksum(7, soc_flip));

  auto t_flip = samples;
  t_flip[0].t = t_flip[0].t + Time::from_us(1);
  EXPECT_NE(crc, report_checksum(7, t_flip));

  auto truncated = samples;
  truncated.pop_back();
  EXPECT_NE(crc, report_checksum(7, truncated));
}

TEST(FeedbackResilience, InOrderReportsMatchLegacyIngestBitExact) {
  const auto reports = daily_reports(30, [](int d) { return d % 2 == 0 ? 0.3 : 0.8; });
  DegradationService hardened{DegradationModel{}, 25.0};
  DegradationService legacy{DegradationModel{}, 25.0};
  for (std::size_t i = 0; i < reports.size(); ++i) {
    deliver(hardened, 1, i, reports);
    legacy.ingest(1, reports[i]);
  }
  const Time end = Time::from_days(30.0);
  hardened.recompute(end);
  legacy.recompute(end);
  EXPECT_EQ(hardened.degradation(1), legacy.degradation(1));
  EXPECT_EQ(hardened.normalized_degradation(1), legacy.normalized_degradation(1));
  EXPECT_EQ(hardened.health(1), LedgerHealth::kHealthy);
  EXPECT_EQ(hardened.counters().reports_accepted, reports.size());
  EXPECT_EQ(hardened.counters().gaps_bridged, 0u);
  EXPECT_EQ(hardened.estimated_gap_seconds(1), 0.0);
}

TEST(FeedbackResilience, DuplicateReportsAreDroppedExactly) {
  const auto reports = daily_reports(20, [](int d) { return d % 2 == 0 ? 0.2 : 0.9; });
  DegradationService once{DegradationModel{}, 25.0};
  DegradationService twice{DegradationModel{}, 25.0};
  for (std::size_t i = 0; i < reports.size(); ++i) {
    deliver(once, 1, i, reports);
    deliver(twice, 1, i, reports);
    deliver(twice, 1, i, reports);  // duplicate delivery
  }
  const Time end = Time::from_days(20.0);
  once.recompute(end);
  twice.recompute(end);
  EXPECT_EQ(once.degradation(1), twice.degradation(1));
  EXPECT_EQ(twice.counters().reports_duplicate, reports.size());
  EXPECT_EQ(twice.counters().reports_accepted, reports.size());
}

TEST(FeedbackResilience, ReorderedReportsHealBitExact) {
  const auto reports = daily_reports(21, [](int d) { return d % 2 == 0 ? 0.25 : 0.85; });
  DegradationService ordered{DegradationModel{}, 25.0};
  DegradationService shuffled{DegradationModel{}, 25.0};
  for (std::size_t i = 0; i < reports.size(); ++i) deliver(ordered, 1, i, reports);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    // Swap every (3k+1, 3k+2) pair: 0, 2, 1, 3, 5, 4, ...
    std::size_t j = i;
    if (i % 3 == 1) j = i + 1;
    if (i % 3 == 2) j = i - 1;
    deliver(shuffled, 1, j, reports);
  }
  const Time end = Time::from_days(21.0);
  ordered.recompute(end);
  shuffled.recompute(end);
  EXPECT_EQ(ordered.degradation(1), shuffled.degradation(1));
  EXPECT_GT(shuffled.counters().reports_buffered, 0u);
  EXPECT_EQ(shuffled.counters().reports_buffered, shuffled.counters().reports_reassembled);
  EXPECT_EQ(shuffled.counters().gaps_bridged, 0u);
  EXPECT_EQ(shuffled.health(1), LedgerHealth::kHealthy);
}

TEST(FeedbackResilience, LostReportGapIsBridgedAndFlagged) {
  const auto reports = daily_reports(20, [](int d) { return d % 2 == 0 ? 0.3 : 0.7; });
  DegradationService svc{DegradationModel{}, 25.0};
  // Reports 1-10 in order, report 11 lost forever, 12-14 parked in the
  // reassembly buffer (below the flush depth) until recompute gives up on
  // the missing one and bridges its gap.
  for (std::size_t i = 0; i < 10; ++i) deliver(svc, 1, i, reports);
  for (std::size_t i = 11; i < 14; ++i) deliver(svc, 1, i, reports);
  EXPECT_EQ(svc.counters().reports_buffered, 3u);
  svc.recompute(Time::from_days(14.0));
  EXPECT_GT(svc.counters().gaps_bridged, 0u);
  EXPECT_GT(svc.estimated_gap_seconds(1), 0.0);
  EXPECT_EQ(svc.health(1), LedgerHealth::kGapped);
  EXPECT_GT(svc.degradation(1), 0.0);
  // The next clean in-order report clears the gap flag.
  deliver(svc, 1, 14, reports);
  EXPECT_EQ(svc.health(1), LedgerHealth::kHealthy);
  // The bridged span stays on the books as estimated, not observed, input.
  EXPECT_GT(svc.estimated_gap_seconds(1), 0.0);
}

TEST(FeedbackResilience, SequenceResetSealsResidualWithoutPhantomCycle) {
  // SoC descends 0.9 -> 0.45 before the crash and resumes at 0.9 after: if
  // the ledger paired across the break, rainflow would see one deep phantom
  // cycle. The hardened path must match a tracker told about the break.
  std::vector<std::vector<SocSample>> pre;
  for (int d = 0; d < 10; ++d) {
    pre.push_back({{Time::from_days(d), 0.9 - 0.05 * d}});
  }
  std::vector<std::vector<SocSample>> post;
  for (int d = 12; d < 20; ++d) {
    post.push_back({{Time::from_days(d), 0.9 - 0.05 * (d - 12)}});
  }

  DegradationService svc{DegradationModel{}, 25.0};
  for (std::size_t i = 0; i < pre.size(); ++i) deliver(svc, 1, i, pre);
  // Node rebooted: its report counter restarts at 1 (far outside kSeqWindow
  // behind last_seq = 10, so this cannot be mistaken for a duplicate).
  for (std::size_t i = 0; i < post.size(); ++i) deliver(svc, 1, i, post);
  svc.recompute(Time::from_days(20.0));
  EXPECT_EQ(svc.counters().discontinuities, 1u);

  const DegradationModel model;
  DegradationTracker reference{model, 25.0};
  for (const auto& r : pre) reference.record(r[0].t, r[0].soc);
  reference.mark_discontinuity();
  for (const auto& r : post) reference.record(r[0].t, r[0].soc);
  EXPECT_EQ(svc.degradation(1), reference.degradation(Time::from_days(20.0)));
}

TEST(FeedbackResilience, ChecksumFailuresQuarantineAndExcludeFromDmax) {
  const auto good = daily_reports(30, [](int) { return 0.9; });
  DegradationService svc{DegradationModel{}, 25.0};
  for (std::size_t i = 0; i < good.size(); ++i) deliver(svc, 1, i, good);

  // Node 2's radio spews garbage: every report fails its checksum.
  svc.ingest(2, {{SocSample{Time::zero(), 0.5}}});  // it had reported once, honestly
  for (std::uint32_t k = 0; k < DegradationService::kQuarantineThreshold; ++k) {
    const std::vector<SocSample> junk = {{Time::from_days(k + 1.0), 0.5}};
    svc.ingest_report(2, static_cast<std::uint16_t>(k + 1),
                      static_cast<std::uint8_t>(report_checksum(k + 1, junk) ^ 0x5a), junk);
  }
  svc.recompute(Time::from_days(30.0));
  EXPECT_EQ(svc.health(2), LedgerHealth::kQuarantined);
  EXPECT_EQ(svc.counters().reports_checksum_rejected,
            static_cast<std::uint64_t>(DegradationService::kQuarantineThreshold));
  EXPECT_EQ(svc.counters().quarantines, 1u);
  // Conservative prior, and the quarantined node cannot dilute D_max.
  EXPECT_EQ(svc.normalized_degradation(2), 1.0);
  EXPECT_EQ(svc.max_degradation(), svc.degradation(1));
  EXPECT_EQ(svc.normalized_degradation(1), 1.0);
}

TEST(FeedbackResilience, CleanStreakRecoversFromQuarantine) {
  DegradationService svc{DegradationModel{}, 25.0};
  const auto reports = daily_reports(40, [](int) { return 0.6; });
  deliver(svc, 1, 0, reports);
  for (std::uint32_t k = 0; k < DegradationService::kQuarantineThreshold; ++k) {
    const auto seq = static_cast<std::uint16_t>(k + 2);
    svc.ingest_report(1, seq,
                      static_cast<std::uint8_t>(report_checksum(seq, reports[k + 1]) ^ 0xff),
                      reports[k + 1]);
  }
  EXPECT_EQ(svc.health(1), LedgerHealth::kQuarantined);
  // The retransmitted reports arrive intact: a clean streak lifts quarantine.
  for (std::uint32_t k = 0; k < DegradationService::kRecoveryStreak; ++k) {
    deliver(svc, 1, k + 1, reports);
  }
  EXPECT_EQ(svc.health(1), LedgerHealth::kRecovered);
  EXPECT_EQ(svc.counters().recoveries, 1u);
  svc.recompute(Time::from_days(5.0));
  EXPECT_EQ(svc.health(1), LedgerHealth::kHealthy);
  EXPECT_LT(svc.normalized_degradation(1), 1.0 + 1e-12);
  EXPECT_GT(svc.degradation(1), 0.0);
}

TEST(FeedbackResilience, CheckpointRestoreIsBitExactMidReassembly) {
  const auto reports = daily_reports(30, [](int d) { return d % 3 == 0 ? 0.2 : 0.8; });
  DegradationService original{DegradationModel{}, 25.0};
  for (std::size_t i = 0; i < 12; ++i) deliver(original, 1, i, reports);
  for (std::size_t i = 0; i < 10; ++i) deliver(original, 2, i, reports);
  deliver(original, 2, 11, reports);  // parked in node 2's reassembly buffer
  original.recompute(Time::from_days(12.0));
  deliver(original, 2, 13, reports);  // held again, across the checkpoint

  std::stringstream saved;
  StateWriter writer{saved};
  original.checkpoint_state(writer);
  DegradationService restored{DegradationModel{}, 25.0};
  const std::string saved_bytes = saved.str();
  StateReader reader{saved_bytes};
  restored.restore_state(reader);

  EXPECT_EQ(restored.node_count(), original.node_count());
  EXPECT_EQ(restored.max_degradation(), original.max_degradation());
  for (std::uint32_t id : {1u, 2u}) {
    EXPECT_EQ(restored.degradation(id), original.degradation(id));
    EXPECT_EQ(restored.normalized_degradation(id), original.normalized_degradation(id));
    EXPECT_EQ(restored.health(id), original.health(id));
    EXPECT_EQ(restored.estimated_gap_seconds(id), original.estimated_gap_seconds(id));
  }
  EXPECT_EQ(restored.counters().reports_accepted, original.counters().reports_accepted);
  EXPECT_EQ(restored.counters().reports_buffered, original.counters().reports_buffered);

  // The held report and sequence state survived: both services must agree
  // bit-exactly on all traffic delivered after the restart.
  for (std::size_t i = 12; i < reports.size(); ++i) {
    deliver(original, 1, i, reports);
    deliver(original, 2, i, reports);
    deliver(restored, 1, i, reports);
    deliver(restored, 2, i, reports);
  }
  original.recompute(Time::from_days(30.0));
  restored.recompute(Time::from_days(30.0));
  EXPECT_EQ(restored.degradation(1), original.degradation(1));
  EXPECT_EQ(restored.degradation(2), original.degradation(2));
  EXPECT_EQ(restored.max_degradation(), original.max_degradation());
}

TEST(FeedbackResilience, RestoreRejectsCorruptOrTruncatedCheckpoints) {
  DegradationService svc{DegradationModel{}, 25.0};
  const auto reports = daily_reports(10, [](int) { return 0.7; });
  for (std::size_t i = 0; i < reports.size(); ++i) deliver(svc, 1, i, reports);
  svc.recompute(Time::from_days(10.0));
  std::stringstream saved;
  StateWriter writer{saved};
  svc.checkpoint_state(writer);
  const std::string text = saved.str();
  const auto restore_error = [](const std::string& stream) -> std::string {
    StateReader reader{stream};
    DegradationService victim{DegradationModel{}, 25.0};
    try {
      victim.restore_state(reader);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  ASSERT_EQ(restore_error(text), "");

  // Flip one hex digit of a double (D_max): the section hash must catch it.
  std::string corrupt = text;
  const std::size_t pos = corrupt.find("\nd ");
  ASSERT_NE(pos, std::string::npos);
  corrupt[pos + 5] = corrupt[pos + 5] == '0' ? '1' : '0';
  EXPECT_EQ(restore_error(corrupt).rfind("state codec: checksum mismatch in section 'ledger'", 0),
            0u);

  EXPECT_EQ(restore_error(text.substr(0, text.size() / 2)),
            "state codec: unexpected end of checkpoint in section 'ledger'");

  EXPECT_EQ(restore_error("blamledger v9\n"),
            "state codec: expected 'section ledger', got 'blamledger v9'");
}

TEST(FeedbackResilience, LegacyIngestRejectsGarbageSamples) {
  DegradationService clean{DegradationModel{}, 25.0};
  DegradationService dirty{DegradationModel{}, 25.0};
  const std::vector<SocSample> good = {{Time::from_days(0.0), 0.5},
                                       {Time::from_days(1.0), 0.8},
                                       {Time::from_days(2.0), 0.4}};
  clean.ingest(1, good);
  dirty.ingest(1, good);
  const std::vector<SocSample> garbage = {
      {Time::from_days(3.0), std::numeric_limits<double>::quiet_NaN()},
      {Time::from_days(3.0), std::numeric_limits<double>::infinity()},
      {Time::from_days(3.0), -0.25},
      {Time::from_days(3.0), 1.75},
      {Time::from_days(1.0), 0.5},  // timestamp behind the trace
  };
  dirty.ingest(1, garbage);
  const Time end = Time::from_days(2.0);
  clean.recompute(end);
  dirty.recompute(end);
  EXPECT_EQ(dirty.degradation(1), clean.degradation(1));
  EXPECT_EQ(dirty.counters().samples_rejected_range, 4u);
  EXPECT_EQ(dirty.counters().samples_rejected_nonmonotonic, 1u);
}

TEST(FeedbackResilience, SilentNodeDoesNotDiluteDmax) {
  // Regression for the normalized-degradation fallback: a registered node
  // that never reports must neither pull D_max toward zero nor inherit a
  // nonzero w_u.
  DegradationService svc{DegradationModel{}, 25.0};
  svc.register_node(7);  // never reports
  const auto reports = daily_reports(30, [](int d) { return d % 2 == 0 ? 0.3 : 0.9; });
  for (std::size_t i = 0; i < reports.size(); ++i) deliver(svc, 1, i, reports);
  svc.recompute(Time::from_days(30.0));
  EXPECT_EQ(svc.max_degradation(), svc.degradation(1));
  EXPECT_GT(svc.max_degradation(), 0.0);
  EXPECT_EQ(svc.normalized_degradation(1), 1.0);
  EXPECT_EQ(svc.normalized_degradation(7), 0.0);
  EXPECT_EQ(svc.degradation(7), 0.0);
}

TEST(FaultPlanConfig, ValidatesReportFaultProbabilities) {
  FaultPlanConfig ok;
  ok.report_loss = 0.3;
  ok.report_dup = 0.2;
  ok.report_reorder = 0.2;
  ok.report_corrupt = 0.2;
  ok.report_truncate = 0.1;  // sums to exactly 1.0: legal
  EXPECT_NO_THROW(ok.validate());
  EXPECT_TRUE(ok.reports_enabled());
  EXPECT_TRUE(ok.any());

  FaultPlanConfig negative;
  negative.report_loss = -0.1;
  EXPECT_THROW(negative.validate(), std::invalid_argument);

  FaultPlanConfig above_one;
  above_one.report_corrupt = 1.5;
  EXPECT_THROW(above_one.validate(), std::invalid_argument);

  FaultPlanConfig oversum;
  oversum.report_loss = 0.6;
  oversum.report_dup = 0.6;  // each legal, the sum is not
  EXPECT_THROW(oversum.validate(), std::invalid_argument);

  FaultPlanConfig off;
  EXPECT_FALSE(off.reports_enabled());
  EXPECT_FALSE(off.any());
}

TEST(FaultPlanConfig, ValidatesGilbertElliottParameters) {
  FaultPlanConfig bad_prob;
  bad_prob.ack_loss_bad = 1.5;
  EXPECT_THROW(bad_prob.validate(), std::invalid_argument);

  FaultPlanConfig negative_prob;
  negative_prob.ack_loss_good = -0.01;
  negative_prob.ack_loss_bad = 0.5;
  EXPECT_THROW(negative_prob.validate(), std::invalid_argument);

  FaultPlanConfig zero_sojourn;
  zero_sojourn.ack_loss_bad = 0.5;
  zero_sojourn.ack_bad_mean = Time::zero();
  EXPECT_THROW(zero_sojourn.validate(), std::invalid_argument);

  GilbertElliott::Params p;
  p.loss_bad = 1.1;
  EXPECT_THROW((GilbertElliott{p, Rng{1, 2}}), std::invalid_argument);
  GilbertElliott::Params q;
  q.good_mean = Time::zero();
  EXPECT_THROW((GilbertElliott{q, Rng{1, 2}}), std::invalid_argument);
}

TEST(ReportFaultChannel, DeterministicAndCaughtBySimChecksum) {
  FaultPlanConfig fc;
  fc.report_loss = 0.2;
  fc.report_dup = 0.1;
  fc.report_reorder = 0.2;
  fc.report_corrupt = 0.2;
  fc.report_truncate = 0.1;
  const auto reports = daily_reports(60, [](int d) { return d % 2 == 0 ? 0.35 : 0.75; });

  const auto run = [&](std::uint64_t seed) {
    FaultPlan plan{fc, Rng{seed, 0x5eb0}};
    ReportFaultChannel channel{plan};
    DegradationService svc{DegradationModel{}, 25.0};
    const ReportFaultChannel::Sink sink =
        [&svc](std::uint32_t node, std::uint16_t seq, std::uint8_t crc,
               std::span<const SocSample> samples) { svc.ingest_report(node, seq, crc, samples); };
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto seq = static_cast<std::uint16_t>(i + 1);
      channel.deliver(1, seq, report_checksum(seq, reports[i]), reports[i], sink);
      channel.deliver(2, seq, report_checksum(seq, reports[i]), reports[i], sink);
    }
    channel.flush(sink);
    svc.recompute(Time::from_days(60.0));
    struct Result {
      ReportChannelCounters channel;
      LedgerCounters ledger;
      double deg1, deg2;
    };
    return Result{channel.counters(), svc.counters(), svc.degradation(1), svc.degradation(2)};
  };

  const auto a = run(99);
  const auto b = run(99);
  EXPECT_EQ(a.channel.dropped, b.channel.dropped);
  EXPECT_EQ(a.channel.duplicated, b.channel.duplicated);
  EXPECT_EQ(a.channel.reordered, b.channel.reordered);
  EXPECT_EQ(a.channel.corrupted, b.channel.corrupted);
  EXPECT_EQ(a.channel.truncated, b.channel.truncated);
  EXPECT_EQ(a.deg1, b.deg1);
  EXPECT_EQ(a.deg2, b.deg2);
  // With these rates every fault class fires on 120 reports...
  EXPECT_GT(a.channel.dropped, 0u);
  EXPECT_GT(a.channel.corrupted, 0u);
  EXPECT_GT(a.channel.truncated, 0u);
  // ...and every corrupted or truncated delivery is caught by the simulator-
  // level checksum (single-bit flips and dropped samples cannot slip by an
  // intact CRC-8 recomputation).
  EXPECT_EQ(a.ledger.reports_checksum_rejected, a.channel.corrupted + a.channel.truncated);
  // A different seed realizes a different fault pattern.
  const auto c = run(100);
  EXPECT_NE(a.channel.dropped, c.channel.dropped);
}

TEST(Audit, FeedbackConsistencyFlagsOnlyInflatedLedgers) {
  Auditor audit{{1, 2}, /*throw_on_violation=*/false};
  // Estimate below and slightly above truth (within 5% + abs): clean.
  audit.on_feedback_ledger(1, Time::from_days(1.0), 0.010, 0.012);
  audit.on_feedback_ledger(1, Time::from_days(2.0), 0.0104, 0.010);
  EXPECT_EQ(audit.violation_count(), 0u);
  // 30% above truth: the gateway thinks the battery is much worse than the
  // node's own tracker says — flagged.
  audit.on_feedback_ledger(1, Time::from_days(3.0), 0.013, 0.010);
  EXPECT_EQ(audit.violation_count(), 1u);
  ASSERT_EQ(audit.violations().size(), 1u);
  EXPECT_EQ(audit.violations()[0].invariant, AuditInvariant::kFeedbackConsistency);

  Auditor strict{{1, 2}, /*throw_on_violation=*/true};
  EXPECT_THROW(strict.on_feedback_ledger(2, Time::zero(), 1.0, 0.5), AuditError);
}

TEST(FeedbackResilience, NetworkRunWithReportFaultsIsDeterministic) {
  ScenarioConfig c;
  c.policy = PolicyKind::kBlam;
  c.theta = 0.5;
  c.n_nodes = 8;
  c.seed = 21;
  c.label = c.policy_label();
  c.faults.report_loss = 0.25;
  c.faults.report_dup = 0.1;
  c.faults.report_reorder = 0.15;
  c.faults.report_corrupt = 0.1;
  c.faults.report_truncate = 0.05;

  struct RunResult {
    NetworkSummary summary;
    GatewayMetrics gateway;
    double max_degradation;
  };
  const auto run = [&] {
    Network network{c};
    network.run_until(Time::from_days(20.0));
    network.finalize_metrics();
    return RunResult{network.metrics().summarize(), network.metrics().gateway(),
                     network.max_degradation()};
  };
  const RunResult a = run();
  const RunResult b = run();

  // The channel injected faults and the ledger coped with them.
  EXPECT_GT(a.gateway.reports_dropped_fault, 0u);
  EXPECT_GT(a.gateway.reports_corrupted_fault, 0u);
  EXPECT_GT(a.summary.feedback.reports_accepted, 0u);
  EXPECT_GT(a.summary.feedback.reports_checksum_rejected, 0u);

  // Bit-identical across runs: same seed, same faults, same ledger.
  EXPECT_EQ(a.max_degradation, b.max_degradation);
  EXPECT_EQ(a.gateway.reports_dropped_fault, b.gateway.reports_dropped_fault);
  EXPECT_EQ(a.summary.feedback.reports_accepted, b.summary.feedback.reports_accepted);
  EXPECT_EQ(a.summary.feedback.gaps_bridged, b.summary.feedback.gaps_bridged);
}

}  // namespace
}  // namespace blam
