// Determinism guarantees of the fault-injection subsystem:
//   - a scenario without faults builds no FaultPlan at all;
//   - attaching a FaultPlan whose faults lie outside the simulated horizon
//     leaves every result bit-identical to the fault-free twin (fault
//     streams fork off a dedicated salt, so the channel/traffic/topology
//     draws are untouched);
//   - each fault source owns an independent child stream, so reseeding one
//     source never shifts another;
//   - the Gilbert-Elliott chain and the outage schedule replay exactly from
//     (config, seed).
#include <gtest/gtest.h>

#include "fault/fault_plan.hpp"
#include "fault/gilbert_elliott.hpp"
#include "net/experiment.hpp"
#include "sim/shard_engine.hpp"

namespace blam {
namespace {

ScenarioConfig small_blam(int nodes = 15, std::uint64_t seed = 7) {
  ScenarioConfig c;
  c.policy = PolicyKind::kBlam;
  c.theta = 0.5;
  c.n_nodes = nodes;
  c.seed = seed;
  c.label = c.policy_label();
  return c;
}

TEST(FaultRng, AbsentFaultsBuildNoPlan) {
  ScenarioConfig c = small_blam(3);
  EXPECT_FALSE(c.faults.any());
  ShardedNetwork network{c};
  EXPECT_EQ(network.slice(0).fault_plan(), nullptr);
}

TEST(FaultRng, EachSourceFlipsAny) {
  FaultPlanConfig f;
  EXPECT_FALSE(f.any());
  f.outage_daily_duration = Time::from_hours(1.0);
  EXPECT_TRUE(f.any() && f.outages_enabled());
  f = FaultPlanConfig{};
  f.outage_random_per_day = 0.5;
  EXPECT_TRUE(f.any() && f.outages_enabled());
  f = FaultPlanConfig{};
  f.ack_loss_bad = 0.9;
  EXPECT_TRUE(f.any() && f.ack_loss_enabled());
  f = FaultPlanConfig{};
  f.crash_per_year = 2.0;
  EXPECT_TRUE(f.any() && f.crashes_enabled());
  f = FaultPlanConfig{};
  f.drought_duration = Time::from_days(3.0);
  f.drought_scale = 0.2;
  EXPECT_TRUE(f.any() && f.drought_enabled());
}

TEST(FaultRng, OutOfHorizonFaultsAreBitIdenticalToAbsent) {
  // A drought parked at day 300 builds a real FaultPlan (every node routes
  // its harvest integrals through it), yet a 2-day run must match the
  // fault-free twin exactly: fault streams fork off their own salt and the
  // scaled integrals degenerate to the plain ones outside the drought.
  ScenarioConfig plain = small_blam();
  ScenarioConfig faulty = plain;
  faulty.faults.drought_start = Time::from_days(300.0);
  faulty.faults.drought_duration = Time::from_days(5.0);
  faulty.faults.drought_scale = 0.25;
  ASSERT_TRUE(faulty.faults.any());

  const ExperimentResult a = run_scenario(plain, Time::from_days(2.0));
  const ExperimentResult b = run_scenario(faulty, Time::from_days(2.0));
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].generated, b.nodes[i].generated);
    EXPECT_EQ(a.nodes[i].delivered, b.nodes[i].delivered);
    EXPECT_EQ(a.nodes[i].tx_attempts, b.nodes[i].tx_attempts);
    EXPECT_EQ(a.nodes[i].retx, b.nodes[i].retx);
    EXPECT_EQ(a.nodes[i].tx_energy.joules(), b.nodes[i].tx_energy.joules());
    EXPECT_EQ(a.nodes[i].degradation, b.nodes[i].degradation);
  }
}

TEST(FaultRng, StalenessKnobAloneChangesNothingWhenFeedbackIsFresh) {
  // Dissemination refreshes w_u daily, so with k = 30 periods the ramp never
  // engages in a short run and the knob must be behaviour-neutral.
  ScenarioConfig plain = small_blam();
  ScenarioConfig resilient = plain;
  resilient.stale_feedback_k = 30.0;
  const ExperimentResult a = run_scenario(plain, Time::from_days(2.0));
  const ExperimentResult b = run_scenario(resilient, Time::from_days(2.0));
  EXPECT_EQ(a.events_executed, b.events_executed);
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].delivered, b.nodes[i].delivered);
    EXPECT_EQ(a.nodes[i].tx_energy.joules(), b.nodes[i].tx_energy.joules());
  }
}

TEST(FaultRng, FaultRunsReplayExactly) {
  // Same config + seed => identical trajectory even with every fault source
  // firing. This is the property the resilience bench leans on.
  ScenarioConfig c = small_blam(10, 21);
  c.faults.outage_daily_start = Time::from_hours(8.0);
  c.faults.outage_daily_duration = Time::from_hours(4.0);
  c.faults.outage_random_per_day = 1.0;
  c.faults.ack_loss_bad = 0.9;
  c.faults.crash_per_year = 20.0;
  c.faults.drought_start = Time::from_days(1.0);
  c.faults.drought_duration = Time::from_days(1.0);
  c.faults.drought_scale = 0.3;
  c.stale_feedback_k = 2.0;
  c.ack_failure_backoff = true;

  const ExperimentResult a = run_scenario(c, Time::from_days(3.0));
  const ExperimentResult b = run_scenario(c, Time::from_days(3.0));
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].generated, b.nodes[i].generated);
    EXPECT_EQ(a.nodes[i].delivered, b.nodes[i].delivered);
    EXPECT_EQ(a.nodes[i].crashes, b.nodes[i].crashes);
    EXPECT_EQ(a.nodes[i].lost_in_outage, b.nodes[i].lost_in_outage);
    EXPECT_EQ(a.nodes[i].tx_energy.joules(), b.nodes[i].tx_energy.joules());
    EXPECT_EQ(a.nodes[i].degradation, b.nodes[i].degradation);
  }
  EXPECT_EQ(a.summary.total_outage_s, b.summary.total_outage_s);
}

TEST(FaultRng, OutageScheduleIsDeterministicAndIndependentOfQueryOrder) {
  FaultPlanConfig f;
  f.outage_daily_start = Time::from_hours(2.0);
  f.outage_daily_duration = Time::from_hours(6.0);
  f.outage_random_per_day = 2.0;

  FaultPlan a{f, Rng{42, 1}.fork(0xfa17)};
  FaultPlan b{f, Rng{42, 1}.fork(0xfa17)};

  // a is probed minute-by-minute; b jumps straight to the end. The lazily
  // extended schedule must agree regardless of how it was materialized.
  int out_minutes = 0;
  const Time end = Time::from_days(5.0);
  for (Time t = Time::zero(); t < end; t = t + Time::from_minutes(1.0)) {
    if (a.gateway_out(t)) ++out_minutes;
  }
  EXPECT_EQ(b.outage_seconds_until(end), a.outage_seconds_until(end));
  // Daily fixed windows alone give 6 h/day; random outages only add.
  EXPECT_GE(out_minutes, 5 * 6 * 60);
  EXPECT_GE(a.outage_seconds_until(end).hours(), 30.0);

  // A different seed shifts the random outages but keeps the fixed windows.
  FaultPlan c{f, Rng{43, 1}.fork(0xfa17)};
  EXPECT_TRUE(c.gateway_out(Time::from_hours(3.0)));  // inside the daily window
  EXPECT_NE(c.outage_seconds_until(end).seconds(), a.outage_seconds_until(end).seconds());
}

TEST(FaultRng, FixedDailyWindowEdgesAreExact) {
  FaultPlanConfig f;
  f.outage_daily_start = Time::from_hours(10.0);
  f.outage_daily_duration = Time::from_hours(2.0);
  FaultPlan plan{f, Rng{1, 1}.fork(0xfa17)};
  const Time day = Time::from_days(1.0);
  for (int d = 0; d < 3; ++d) {
    const Time start = day * std::int64_t{d} + Time::from_hours(10.0);
    EXPECT_FALSE(plan.gateway_out(start - Time::from_seconds(1.0)));
    EXPECT_TRUE(plan.gateway_out(start));
    EXPECT_TRUE(plan.gateway_out(start + Time::from_hours(2.0) - Time::from_seconds(1.0)));
    EXPECT_FALSE(plan.gateway_out(start + Time::from_hours(2.0)));
  }
  EXPECT_EQ(plan.outage_seconds_until(day * std::int64_t{3}).hours(), 6.0);
  // last_outage_end_before finds the previous day's window end.
  const Time end_day0 = Time::from_hours(12.0);
  EXPECT_EQ(plan.last_outage_end_before(Time::from_hours(20.0)).seconds(), end_day0.seconds());
  EXPECT_EQ(plan.last_outage_end_before(Time::from_hours(5.0)).seconds(), 0.0);
}

TEST(FaultRng, ForkSaltsDecoupleFaultSources) {
  // Two plans that differ only in whether the ACK channel is enabled must
  // produce the same outage schedule: the channel draws from its own child
  // stream, not the outage stream.
  FaultPlanConfig outages_only;
  outages_only.outage_random_per_day = 3.0;
  FaultPlanConfig both = outages_only;
  both.ack_loss_bad = 1.0;

  FaultPlan a{outages_only, Rng{9, 1}.fork(0xfa17)};
  FaultPlan b{both, Rng{9, 1}.fork(0xfa17)};
  const Time end = Time::from_days(10.0);
  // Interleave ACK-channel queries on b to consume draws from its chain.
  for (Time t = Time::zero(); t < end; t = t + Time::from_hours(1.0)) {
    (void)b.downlink_lost(0, t);
    EXPECT_EQ(a.gateway_out(t), b.gateway_out(t)) << "t=" << t.hours() << "h";
  }
  EXPECT_EQ(a.outage_seconds_until(end).seconds(), b.outage_seconds_until(end).seconds());
}

TEST(FaultRng, PerGatewayAckChannelsAreIndependent) {
  FaultPlanConfig f;
  f.ack_loss_good = 0.0;
  f.ack_loss_bad = 1.0;
  FaultPlan plan{f, Rng{5, 1}.fork(0xfa17)};
  int diverged = 0;
  for (int i = 0; i < 2000; ++i) {
    const Time t = Time::from_seconds(30.0 * i);
    if (plan.downlink_lost(0, t) != plan.downlink_lost(1, t)) ++diverged;
  }
  EXPECT_GT(diverged, 0);  // distinct chains, not one shared stream
}

TEST(FaultRng, GilbertElliottReplaysAndMixes) {
  GilbertElliott::Params p;
  p.loss_good = 0.0;
  p.loss_bad = 1.0;
  p.good_mean = Time::from_minutes(30.0);
  p.bad_mean = Time::from_minutes(10.0);
  GilbertElliott a{p, Rng{77, 2}};
  GilbertElliott b{p, Rng{77, 2}};
  int losses = 0;
  const int queries = 20000;
  for (int i = 0; i < queries; ++i) {
    const Time t = Time::from_seconds(10.0 * i);  // ~55 hours total
    const bool lost = a.lost(t);
    EXPECT_EQ(lost, b.lost(t));
    losses += lost ? 1 : 0;
  }
  // With loss 0/1 the loss rate estimates the bad-state occupancy,
  // bad / (good + bad) = 10 / 40 min.
  const double rate = static_cast<double>(losses) / queries;
  EXPECT_NEAR(rate, 0.25, 0.08);
}

TEST(FaultRng, CrashStreamsDifferPerNode) {
  FaultPlanConfig f;
  f.crash_per_year = 12.0;
  FaultPlan plan{f, Rng{3, 1}.fork(0xfa17)};
  Rng s0 = plan.crash_stream(0);
  Rng s0_again = plan.crash_stream(0);
  Rng s1 = plan.crash_stream(1);
  const double a = s0.exponential(30.0);
  EXPECT_EQ(a, s0_again.exponential(30.0));   // replayable
  EXPECT_NE(a, s1.exponential(30.0));         // decoupled across nodes
}

TEST(FaultRng, DroughtFactorsAreExact) {
  FaultPlanConfig f;
  f.drought_start = Time::from_days(2.0);
  f.drought_duration = Time::from_days(1.0);
  f.drought_scale = 0.5;
  FaultPlan plan{f, Rng{4, 1}.fork(0xfa17)};
  EXPECT_EQ(plan.drought_scale_at(Time::from_days(1.0)), 1.0);
  EXPECT_EQ(plan.drought_scale_at(Time::from_days(2.5)), 0.5);
  EXPECT_EQ(plan.drought_scale_at(Time::from_days(3.0)), 1.0);
  // Interval half inside the drought: time-weighted average of 1 and 0.5.
  EXPECT_DOUBLE_EQ(plan.drought_factor(Time::from_days(1.5), Time::from_days(2.5)), 0.75);
  EXPECT_DOUBLE_EQ(plan.drought_factor(Time::from_days(2.1), Time::from_days(2.9)), 0.5);
  EXPECT_DOUBLE_EQ(plan.drought_factor(Time::from_days(4.0), Time::from_days(5.0)), 1.0);
}

}  // namespace
}  // namespace blam
