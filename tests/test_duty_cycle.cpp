#include "mac/duty_cycle.hpp"

#include <gtest/gtest.h>

#include "net/experiment.hpp"

namespace blam {
namespace {

TEST(DutyCycleLimiter, ValidatesDuty) {
  EXPECT_THROW(DutyCycleLimiter{0.0}, std::invalid_argument);
  EXPECT_THROW(DutyCycleLimiter{1.1}, std::invalid_argument);
  EXPECT_NO_THROW(DutyCycleLimiter{1.0});
}

TEST(DutyCycleLimiter, TOffRule) {
  DutyCycleLimiter limiter{0.01};  // EU 1%
  EXPECT_TRUE(limiter.can_transmit(Time::zero()));
  // 1 s of airtime at 1% -> 99 s of silence after the transmission ends.
  limiter.record(Time::zero(), Time::from_seconds(1.0));
  EXPECT_EQ(limiter.next_allowed(), Time::from_seconds(100.0));
  EXPECT_FALSE(limiter.can_transmit(Time::from_seconds(50.0)));
  EXPECT_TRUE(limiter.can_transmit(Time::from_seconds(100.0)));
}

TEST(DutyCycleLimiter, FullDutyNeverBlocks) {
  DutyCycleLimiter limiter{1.0};
  limiter.record(Time::zero(), Time::from_seconds(10.0));
  EXPECT_TRUE(limiter.can_transmit(Time::from_seconds(10.0)));
}

TEST(DutyCycleLimiter, LongestTOffWins) {
  DutyCycleLimiter limiter{0.1};
  limiter.record(Time::zero(), Time::from_seconds(2.0));            // allowed at 20 s
  limiter.record(Time::from_seconds(0.5), Time::from_ms(100));      // allowed at 1.5 s
  EXPECT_EQ(limiter.next_allowed(), Time::from_seconds(20.0));
}

TEST(DutyCycleLimiter, RejectsNegativeAirtime) {
  DutyCycleLimiter limiter{0.5};
  EXPECT_THROW(limiter.record(Time::zero(), Time::from_seconds(-1.0)), std::invalid_argument);
}

TEST(DutyCycleNetwork, TightDutyThrottlesRetransmissions) {
  // SF10 airtime ~0.3 s; at 0.1% duty each transmission buys ~5 min of
  // silence — the retransmission ladder cannot run, defers accumulate and
  // PRR drops versus the unlimited twin.
  ScenarioConfig open = lorawan_scenario(40, 13);
  ScenarioConfig tight = open;
  tight.duty_cycle = 0.001;
  const auto trace = build_shared_trace(open);
  const ExperimentResult a = run_scenario(open, Time::from_days(2.0), trace);
  const ExperimentResult b = run_scenario(tight, Time::from_days(2.0), trace);

  std::uint64_t defers = 0;
  for (const NodeMetrics& m : b.nodes) defers += m.duty_defers;
  EXPECT_GT(defers, 0u);
  // Regulatory silence delays deliveries and drops ladder tails.
  EXPECT_LE(b.summary.mean_prr, a.summary.mean_prr);
  EXPECT_GT(b.summary.mean_delivered_latency_s, a.summary.mean_delivered_latency_s);

  std::uint64_t defers_open = 0;
  for (const NodeMetrics& m : a.nodes) defers_open += m.duty_defers;
  EXPECT_EQ(defers_open, 0u);  // duty 1.0 never defers
}

TEST(DutyCycleNetwork, OnePercentIsTransparentAtLoraTraffic) {
  // A 16-60 min period at ~0.3 s airtime is ~0.03% duty: EU's 1% cap should
  // barely bite for first transmissions.
  ScenarioConfig c = lorawan_scenario(20, 14);
  c.duty_cycle = 0.01;
  const ExperimentResult r = run_scenario(c, Time::from_days(2.0));
  EXPECT_GT(r.summary.mean_prr, 0.9);
}

}  // namespace
}  // namespace blam
