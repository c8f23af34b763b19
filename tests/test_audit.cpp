// Runtime invariant auditor: hook-level violation detection, throw mode,
// environment switches, the slice-local ledger, the merged report, and the
// bit-identity guarantee (auditing observes the same simulation).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "common/state_codec.hpp"
#include "env_guard.hpp"
#include "net/experiment.hpp"
#include "net/network.hpp"

namespace blam {
namespace {

/// An auditor over nodes 0..9, recording violations.
Auditor audited(bool throw_on_violation = false) {
  return Auditor{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, throw_on_violation};
}

TEST(AuditConfigTest, EnvOverridesLevelAndThrow) {
  const EnvGuard g1{"BLAM_AUDIT", "1"};
  const EnvGuard g2{"BLAM_AUDIT_THROW", "1"};
  AuditConfig resolved = audit_config_from_env();
  EXPECT_TRUE(resolved.enabled);
  EXPECT_TRUE(resolved.throw_on_violation);

  // BLAM_AUDIT takes 0|1; a stale "2", other out-of-range values and
  // malformed text leave auditing off, like unset.
  for (const char* off : {"0", "2", "9", "-1", "yes", ""}) {
    ::setenv("BLAM_AUDIT", off, 1);
    ::setenv("BLAM_AUDIT_THROW", "?", 1);
    resolved = audit_config_from_env();
    EXPECT_FALSE(resolved.enabled) << off;
    EXPECT_FALSE(resolved.throw_on_violation);
  }

  ::unsetenv("BLAM_AUDIT");
  ::unsetenv("BLAM_AUDIT_THROW");
  resolved = audit_config_from_env();
  EXPECT_FALSE(resolved.enabled);
  EXPECT_FALSE(resolved.throw_on_violation);
}

TEST(AuditorTest, RejectsInvalidConstruction) {
  EXPECT_THROW((Auditor{{3, 1}, false}), std::invalid_argument);
  EXPECT_THROW((Auditor{{1, 1}, false}), std::invalid_argument);
  EXPECT_NO_THROW((Auditor{{}, false}));
  // A hook for a node outside the slice is a wiring bug, not a violation.
  Auditor audit{{2, 5}, false};
  EXPECT_THROW(audit.on_soc(3, Time::from_seconds(1.0), 0.5, 1.0), std::out_of_range);
  EXPECT_NO_THROW(audit.on_soc(5, Time::from_seconds(1.0), 0.5, 1.0));
}

TEST(AuditorTest, EventPopRegressionIsViolation) {
  Auditor audit = audited();
  audit.on_event_pop(Time::from_seconds(10.0), Time::from_seconds(10.0));
  audit.on_event_pop(Time::from_seconds(10.0), Time::from_seconds(11.0));
  EXPECT_EQ(audit.violation_count(), 0u);
  audit.on_event_pop(Time::from_seconds(10.0), Time::from_seconds(9.0));
  ASSERT_EQ(audit.violation_count(), 1u);
  EXPECT_EQ(audit.violations()[0].invariant, AuditInvariant::kEventMonotonic);
  EXPECT_EQ(audit.violations()[0].node, -1);
}

TEST(AuditorTest, SocOutsideUnitIntervalIsViolation) {
  Auditor audit = audited();
  audit.on_soc(3, Time::from_seconds(1.0), 0.5, 1.0);
  audit.on_soc(3, Time::from_seconds(2.0), 1.2, 1.0);
  ASSERT_EQ(audit.violation_count(), 1u);
  EXPECT_EQ(audit.violations()[0].invariant, AuditInvariant::kSocBounds);
  EXPECT_EQ(audit.violations()[0].node, 3);
  EXPECT_DOUBLE_EQ(audit.violations()[0].observed, 1.2);
}

TEST(AuditorTest, SocRisingAboveCapIsViolationButDrainingAboveCapIsNot) {
  Auditor audit = audited();
  // Adaptive theta lowered the cap under the current charge: sitting above
  // the cap while non-increasing is legal...
  audit.on_soc(7, Time::from_seconds(1.0), 0.80, 0.5);
  audit.on_soc(7, Time::from_seconds(2.0), 0.78, 0.5);
  audit.on_soc(7, Time::from_seconds(3.0), 0.70, 0.5);
  EXPECT_EQ(audit.violation_count(), 0u);
  // ...but CHARGING above the cap means charge() ignored theta.
  audit.on_soc(7, Time::from_seconds(4.0), 0.75, 0.5);
  ASSERT_EQ(audit.violation_count(), 1u);
  const AuditViolation& v = audit.violations()[0];
  EXPECT_EQ(v.invariant, AuditInvariant::kSocBounds);
  EXPECT_EQ(v.node, 7);
  EXPECT_EQ(v.at, Time::from_seconds(4.0));
  EXPECT_NE(v.to_string().find("node 7"), std::string::npos);
}

TEST(AuditorTest, FadeMustBeMonotonicWithinUnitInterval) {
  Auditor audit = audited();
  audit.on_degradation(1, Time::from_days(1.0), 0.01);
  audit.on_degradation(1, Time::from_days(2.0), 0.02);
  EXPECT_EQ(audit.violation_count(), 0u);
  audit.on_degradation(1, Time::from_days(3.0), 0.015);  // fade went backwards
  EXPECT_EQ(audit.violation_count(), 1u);
  EXPECT_EQ(audit.violations()[0].invariant, AuditInvariant::kFadeMonotonic);
  audit.on_degradation(1, Time::from_days(4.0), 1.5);  // outside [0, 1]
  EXPECT_EQ(audit.violation_count(), 2u);
}

TEST(AuditorTest, TransmissionInsideTOffWindowIsViolation) {
  Auditor audit = audited();
  const Time airtime = Time::from_ms(100);
  // 1% duty: T_off = 100 ms * 99 = 9.9 s; next allowed at t = 10 s.
  audit.on_transmission(2, Time::from_seconds(1.0), airtime, 0.01);
  EXPECT_EQ(audit.violation_count(), 0u);
  audit.on_transmission(2, Time::from_seconds(5.0), airtime, 0.01);
  ASSERT_EQ(audit.violation_count(), 1u);
  EXPECT_EQ(audit.violations()[0].invariant, AuditInvariant::kDutyCycle);
  // max_duty = 1 disables the rule entirely.
  Auditor lax = audited();
  lax.on_transmission(2, Time::from_seconds(1.0), airtime, 1.0);
  lax.on_transmission(2, Time::from_seconds(1.1), airtime, 1.0);
  EXPECT_EQ(lax.violation_count(), 0u);
}

TEST(AuditorTest, AckConsistencyAndFeedbackRange) {
  Auditor audit = audited();
  audit.on_ack(4, Time::from_seconds(1.0), 4, 10, 12, true, 0.3);
  EXPECT_EQ(audit.violation_count(), 0u);
  audit.on_ack(4, Time::from_seconds(2.0), 5, 10, 12, false, 0.0);  // wrong node
  audit.on_ack(4, Time::from_seconds(3.0), 4, 99, 12, false, 0.0);  // never sent
  audit.on_ack(4, Time::from_seconds(4.0), 4, 11, 12, true, 1.7);   // w_u out of range
  ASSERT_EQ(audit.violation_count(), 3u);
  EXPECT_EQ(audit.violations()[0].invariant, AuditInvariant::kSequence);
  EXPECT_EQ(audit.violations()[1].invariant, AuditInvariant::kSequence);
  EXPECT_EQ(audit.violations()[2].invariant, AuditInvariant::kFeedbackRange);
}

TEST(AuditorTest, ServerSequenceMustIncrease) {
  Auditor audit = audited();
  audit.on_uplink_seq(0, Time::from_seconds(1.0), 1, -1);
  audit.on_uplink_seq(0, Time::from_seconds(2.0), 2, 1);
  EXPECT_EQ(audit.violation_count(), 0u);
  audit.on_uplink_seq(0, Time::from_seconds(3.0), 2, 2);
  EXPECT_EQ(audit.violation_count(), 1u);
  EXPECT_EQ(audit.violations()[0].invariant, AuditInvariant::kSequence);
}

TEST(AuditorTest, EnergyFlowImbalanceIsViolation) {
  Auditor audit = audited();
  // Balanced surplus interval: harvest 2 J, demand 1 J, 0.5 J charged,
  // 0.5 J wasted, stored grows by 0.5 J.
  PowerFlow ok;
  ok.from_green = Energy::from_joules(1.0);
  ok.charged = Energy::from_joules(0.5);
  ok.wasted = Energy::from_joules(0.5);
  audit.on_energy_flow(0, Time::from_seconds(1.0), Energy::from_joules(2.0),
                       Energy::from_joules(1.0), ok, Energy::from_joules(10.0),
                       Energy::from_joules(10.5), 1.0);
  EXPECT_EQ(audit.violation_count(), 0u);

  // Same flow but the battery "gained" 1.0 J out of 0.5 J charged.
  audit.on_energy_flow(0, Time::from_seconds(2.0), Energy::from_joules(2.0),
                       Energy::from_joules(1.0), ok, Energy::from_joules(10.5),
                       Energy::from_joules(11.5), 1.0);
  ASSERT_GE(audit.violation_count(), 1u);
  EXPECT_EQ(audit.violations()[0].invariant, AuditInvariant::kEnergyConservation);
}

TEST(AuditorTest, ContinuityCatchesUnreportedStorageChange) {
  Auditor audit = audited();
  PowerFlow idle;  // no demand, no harvest: stored must not move
  audit.on_energy_flow(1, Time::from_seconds(1.0), Energy::zero(), Energy::zero(), idle,
                       Energy::from_joules(5.0), Energy::from_joules(5.0), 1.0);
  // Reported loss keeps the ledger consistent across the gap...
  audit.on_storage_loss(1, Time::from_seconds(2.0), Energy::from_joules(0.25));
  audit.on_energy_flow(1, Time::from_seconds(3.0), Energy::zero(), Energy::zero(), idle,
                       Energy::from_joules(4.75), Energy::from_joules(4.75), 1.0);
  EXPECT_EQ(audit.violation_count(), 0u);
  // ...an UNREPORTED change does not.
  audit.on_energy_flow(1, Time::from_seconds(4.0), Energy::zero(), Energy::zero(), idle,
                       Energy::from_joules(4.0), Energy::from_joules(4.0), 1.0);
  ASSERT_EQ(audit.violation_count(), 1u);
  EXPECT_EQ(audit.violations()[0].invariant, AuditInvariant::kEnergyConservation);
}

TEST(AuditorTest, ThrowModeRaisesAuditErrorWithStructuredViolation) {
  Auditor audit = audited(/*throw_on_violation=*/true);
  try {
    audit.on_soc(9, Time::from_hours(2.0), 1.5, 1.0);
    FAIL() << "expected AuditError";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.violation().node, 9);
    EXPECT_EQ(e.violation().invariant, AuditInvariant::kSocBounds);
    EXPECT_NE(std::string{e.what()}.find("node 9"), std::string::npos);
  }
}

TEST(AuditorTest, ViolationsNameTheGlobalNodeOfASparseSlice) {
  // A shard's node ids are sparse; the ledger is indexed by the local node,
  // and the violation still names the global id.
  Auditor audit{{4, 900, 70000}, false};
  audit.on_soc(70000, Time::from_seconds(1.0), 0.5, 1.0);
  audit.on_soc(900, Time::from_seconds(2.0), 1.5, 1.0);
  ASSERT_EQ(audit.violation_count(), 1u);
  EXPECT_EQ(audit.violations()[0].node, 900);
}

TEST(AuditorTest, CheckpointRoundTripCarriesLedgerAndViolations) {
  Auditor original{{3, 8}, false};
  PowerFlow idle;
  original.on_energy_flow(8, Time::from_seconds(1.0), Energy::zero(), Energy::zero(), idle,
                          Energy::from_joules(5.0), Energy::from_joules(5.0), 1.0);
  original.on_storage_loss(8, Time::from_seconds(2.0), Energy::from_joules(0.25));
  original.on_soc(3, Time::from_seconds(3.0), 0.4, 0.5);
  original.on_degradation(3, Time::from_days(1.0), 0.02);
  original.on_transmission(3, Time::from_seconds(4.0), Time::from_ms(100), 0.01);
  original.on_soc(8, Time::from_seconds(5.0), 1.5, 1.0);  // recorded violation
  const auto text = [](const Auditor& audit) {
    std::ostringstream out;
    StateWriter w{out};
    audit.checkpoint_state(w);
    return out.str();
  };
  const std::string stream = text(original);

  Auditor restored{{3, 8}, false};
  StateReader r{stream};
  restored.restore_state(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(text(restored), stream);
  EXPECT_EQ(restored.checks_run(), original.checks_run());
  ASSERT_EQ(restored.violations().size(), 1u);
  EXPECT_EQ(restored.violations()[0].to_string(), original.violations()[0].to_string());

  // The restored ledger carries on exactly: the pending loss still balances
  // node 8's next flow, the fade floor and the T_off window still hold.
  restored.on_energy_flow(8, Time::from_seconds(6.0), Energy::zero(), Energy::zero(), idle,
                          Energy::from_joules(4.75), Energy::from_joules(4.75), 1.0);
  EXPECT_EQ(restored.violation_count(), 1u);
  restored.on_degradation(3, Time::from_days(2.0), 0.01);
  restored.on_transmission(3, Time::from_seconds(5.0), Time::from_ms(100), 0.01);
  EXPECT_EQ(restored.violation_count(), 3u);

  // Another slice's rows do not fit.
  Auditor other{{3, 8, 9}, false};
  StateReader again{stream};
  EXPECT_THROW(other.restore_state(again), std::runtime_error);
}

TEST(AuditorTest, MergedReportOrdersByTimeThenNodeAndCapsRecords) {
  Auditor a{{1, 3}, false};
  Auditor b{{2}, false};
  a.on_soc(3, Time::from_seconds(5.0), 1.5, 1.0);
  a.on_soc(1, Time::from_seconds(7.0), 1.5, 1.0);
  b.on_soc(2, Time::from_seconds(5.0), 1.5, 1.0);
  b.on_soc(2, Time::from_seconds(6.0), 1.5, 1.0);
  const std::vector<const Auditor*> audits{&a, &b};
  const AuditReport report = merge_audits(audits);
  EXPECT_EQ(report.violation_count, 4u);
  EXPECT_EQ(report.checks_run, a.checks_run() + b.checks_run());
  ASSERT_EQ(report.violations.size(), 4u);
  EXPECT_EQ(report.violations[0].node, 2);
  EXPECT_EQ(report.violations[1].node, 3);
  EXPECT_EQ(report.violations[2].node, 2);
  EXPECT_EQ(report.violations[3].node, 1);
  EXPECT_EQ(report.summary(), "audit: 4 checks, 4 violation(s)");

  Auditor many{{0}, false};
  for (int i = 0; i < 100; ++i) many.on_soc(0, Time::from_seconds(i), 1.5, 1.0);
  const std::vector<const Auditor*> one{&many};
  const AuditReport capped = merge_audits(one);
  EXPECT_EQ(capped.violation_count, 100u);
  EXPECT_EQ(capped.violations.size(), Auditor::kMaxRecorded);
}

TEST(AuditIntegrationTest, CleanScenarioHasZeroViolationsAtLevel2) {
  const EnvGuard audit{"BLAM_AUDIT", "1"};
  ScenarioConfig config = blam_scenario(6, 0.5, 11);
  config.duty_cycle = 0.01;
  config.supercap_tx_buffer = 2.0;
  Network network{config};
  network.run_until(Time::from_days(5.0));
  ASSERT_NE(network.auditor(), nullptr);
  EXPECT_GT(network.auditor()->checks_run(), 1000u);
  EXPECT_EQ(network.auditor()->violation_count(), 0u)
      << (network.auditor()->violations().empty()
              ? std::string{}
              : network.auditor()->violations()[0].to_string());
}

TEST(AuditIntegrationTest, AuditLevelDoesNotChangeResults) {
  const Time duration = Time::from_days(4.0);
  std::optional<NetworkSummary> reference;
  for (const char* level : {"0", "1"}) {
    const EnvGuard audit{"BLAM_AUDIT", level};
    Network network{blam_scenario(5, 0.5, 23)};
    EXPECT_EQ(network.auditor() != nullptr, std::string{level} == "1");
    network.run_until(duration);
    network.finalize_metrics();
    const NetworkSummary summary = network.metrics().summarize();
    if (!reference.has_value()) {
      reference = summary;
      continue;
    }
    SCOPED_TRACE(std::string{"BLAM_AUDIT="} + level);
    EXPECT_EQ(summary.mean_prr, reference->mean_prr);
    EXPECT_EQ(summary.mean_retx, reference->mean_retx);
    EXPECT_EQ(summary.max_degradation, reference->max_degradation);
    EXPECT_EQ(summary.total_tx_energy.joules(), reference->total_tx_energy.joules());
  }
}

}  // namespace
}  // namespace blam
