// Runtime invariant auditor: hook-level violation detection, throw mode,
// environment overrides, and the bit-identity guarantee (any audit level
// observes the same simulation).
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "audit/audit.hpp"
#include "net/experiment.hpp"
#include "net/network.hpp"

namespace blam {
namespace {

class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_{name} {
    if (const char* v = std::getenv(name)) saved_ = v;
  }
  ~EnvGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

AuditConfig level2() {
  AuditConfig config;
  config.level = 2;
  return config;
}

TEST(AuditConfigTest, EnvOverridesLevelAndThrow) {
  const EnvGuard g1{"BLAM_AUDIT"};
  const EnvGuard g2{"BLAM_AUDIT_THROW"};
  ::setenv("BLAM_AUDIT", "2", 1);
  ::setenv("BLAM_AUDIT_THROW", "1", 1);
  AuditConfig base;
  AuditConfig resolved = audit_config_from_env(base);
  EXPECT_EQ(resolved.level, 2);
  EXPECT_TRUE(resolved.throw_on_violation);

  // Malformed / out-of-range values keep the scenario's setting.
  ::setenv("BLAM_AUDIT", "9", 1);
  ::setenv("BLAM_AUDIT_THROW", "?", 1);
  base.level = 1;
  base.throw_on_violation = true;
  resolved = audit_config_from_env(base);
  EXPECT_EQ(resolved.level, 1);
  EXPECT_TRUE(resolved.throw_on_violation);

  ::unsetenv("BLAM_AUDIT");
  ::unsetenv("BLAM_AUDIT_THROW");
  resolved = audit_config_from_env(base);
  EXPECT_EQ(resolved.level, 1);
}

TEST(AuditorTest, RejectsInvalidConstruction) {
  AuditConfig config;
  config.level = 0;  // level 0 means "build no Auditor"
  EXPECT_THROW(Auditor{config}, std::invalid_argument);
  config.level = 3;
  EXPECT_THROW(Auditor{config}, std::invalid_argument);
  config.level = 1;
  config.sample_every = 0;
  EXPECT_THROW(Auditor{config}, std::invalid_argument);
}

TEST(AuditorTest, EventPopRegressionIsViolation) {
  Auditor audit{level2()};
  audit.on_event_pop(Time::from_seconds(10.0), Time::from_seconds(10.0));
  audit.on_event_pop(Time::from_seconds(10.0), Time::from_seconds(11.0));
  EXPECT_EQ(audit.violation_count(), 0u);
  audit.on_event_pop(Time::from_seconds(10.0), Time::from_seconds(9.0));
  ASSERT_EQ(audit.violation_count(), 1u);
  EXPECT_EQ(audit.violations()[0].invariant, AuditInvariant::kEventMonotonic);
  EXPECT_EQ(audit.violations()[0].node, -1);
}

TEST(AuditorTest, SocOutsideUnitIntervalIsViolation) {
  Auditor audit{level2()};
  audit.on_soc(3, Time::from_seconds(1.0), 0.5, 1.0);
  audit.on_soc(3, Time::from_seconds(2.0), 1.2, 1.0);
  ASSERT_EQ(audit.violation_count(), 1u);
  EXPECT_EQ(audit.violations()[0].invariant, AuditInvariant::kSocBounds);
  EXPECT_EQ(audit.violations()[0].node, 3);
  EXPECT_DOUBLE_EQ(audit.violations()[0].observed, 1.2);
}

TEST(AuditorTest, SocRisingAboveCapIsViolationButDrainingAboveCapIsNot) {
  Auditor audit{level2()};
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
  Auditor audit{level2()};
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
  Auditor audit{level2()};
  const Time airtime = Time::from_ms(100);
  // 1% duty: T_off = 100 ms * 99 = 9.9 s; next allowed at t = 10 s.
  audit.on_transmission(2, Time::from_seconds(1.0), airtime, 0.01);
  EXPECT_EQ(audit.violation_count(), 0u);
  audit.on_transmission(2, Time::from_seconds(5.0), airtime, 0.01);
  ASSERT_EQ(audit.violation_count(), 1u);
  EXPECT_EQ(audit.violations()[0].invariant, AuditInvariant::kDutyCycle);
  // max_duty = 1 disables the rule entirely.
  Auditor lax{level2()};
  lax.on_transmission(2, Time::from_seconds(1.0), airtime, 1.0);
  lax.on_transmission(2, Time::from_seconds(1.1), airtime, 1.0);
  EXPECT_EQ(lax.violation_count(), 0u);
}

TEST(AuditorTest, AckConsistencyAndFeedbackRange) {
  Auditor audit{level2()};
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
  Auditor audit{level2()};
  audit.on_uplink_seq(0, Time::from_seconds(1.0), 1, -1);
  audit.on_uplink_seq(0, Time::from_seconds(2.0), 2, 1);
  EXPECT_EQ(audit.violation_count(), 0u);
  audit.on_uplink_seq(0, Time::from_seconds(3.0), 2, 2);
  EXPECT_EQ(audit.violation_count(), 1u);
  EXPECT_EQ(audit.violations()[0].invariant, AuditInvariant::kSequence);
}

TEST(AuditorTest, EnergyFlowImbalanceIsViolation) {
  Auditor audit{level2()};
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
  Auditor audit{level2()};
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
  AuditConfig config = level2();
  config.throw_on_violation = true;
  Auditor audit{config};
  try {
    audit.on_soc(9, Time::from_hours(2.0), 1.5, 1.0);
    FAIL() << "expected AuditError";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.violation().node, 9);
    EXPECT_EQ(e.violation().invariant, AuditInvariant::kSocBounds);
    EXPECT_NE(std::string{e.what()}.find("node 9"), std::string::npos);
  }
}

TEST(AuditorTest, Level1SamplesChecksButAccumulatesTotalsExactly) {
  AuditConfig config;
  config.level = 1;
  config.sample_every = 4;
  Auditor audit{config};
  PowerFlow flow;
  flow.from_green = Energy::from_joules(1.0);
  for (int i = 0; i < 8; ++i) {
    audit.on_energy_flow(0, Time::from_seconds(i), Energy::from_joules(1.0),
                         Energy::from_joules(1.0), flow, Energy::from_joules(2.0),
                         Energy::from_joules(2.0), 1.0);
  }
  EXPECT_EQ(audit.checks_run(), 2u);  // every 4th of 8 calls
  EXPECT_DOUBLE_EQ(audit.total_harvested_j(), 8.0);  // totals never sampled
  EXPECT_DOUBLE_EQ(audit.total_consumed_j(), 8.0);
}

TEST(AuditIntegrationTest, CleanScenarioHasZeroViolationsAtLevel2) {
  ScenarioConfig config = blam_scenario(6, 0.5, 11);
  config.audit.level = 2;
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
  // Network-wide ledger totals are physically sensible.
  EXPECT_GT(network.auditor()->total_harvested_j(), 0.0);
  EXPECT_GT(network.auditor()->total_consumed_j(), 0.0);
}

TEST(AuditIntegrationTest, AuditLevelDoesNotChangeResults) {
  const Time duration = Time::from_days(4.0);
  std::optional<NetworkSummary> reference;
  for (const int level : {0, 1, 2}) {
    ScenarioConfig config = blam_scenario(5, 0.5, 23);
    config.audit.level = level;
    Network network{config};
    EXPECT_EQ(network.auditor() != nullptr, level > 0);
    network.run_until(duration);
    network.finalize_metrics();
    const NetworkSummary summary = network.metrics().summarize();
    if (!reference.has_value()) {
      reference = summary;
      continue;
    }
    SCOPED_TRACE("level=" + std::to_string(level));
    EXPECT_EQ(summary.mean_prr, reference->mean_prr);
    EXPECT_EQ(summary.mean_retx, reference->mean_retx);
    EXPECT_EQ(summary.max_degradation, reference->max_degradation);
    EXPECT_EQ(summary.total_tx_energy.joules(), reference->total_tx_energy.joules());
  }
}

}  // namespace
}  // namespace blam
