// Traffic-mode extension: unconfirmed (fire-and-forget) uplinks.
#include <gtest/gtest.h>

#include "net/experiment.hpp"
#include "net/network.hpp"

namespace blam {
namespace {

TEST(UnconfirmedTraffic, NoAcksNoRetransmissions) {
  ScenarioConfig c = lorawan_scenario(20, 41);
  c.confirmed = false;
  const ExperimentResult r = run_scenario(c, Time::from_days(2.0));
  EXPECT_EQ(r.gateway.acks_sent, 0u);
  EXPECT_DOUBLE_EQ(r.summary.mean_retx, 0.0);
  // Single-shot: synchronized-deployment collisions are unrecoverable, so
  // PRR sits below the confirmed mode's but well above collapse.
  EXPECT_GT(r.summary.mean_prr, 0.7);
  // Fire-and-forget latency is just the airtime.
  EXPECT_LT(r.summary.mean_delivered_latency_s, 1.0);
}

TEST(UnconfirmedTraffic, AccountingStillBalances) {
  ScenarioConfig c = lorawan_scenario(30, 42);
  c.confirmed = false;
  const ExperimentResult r = run_scenario(c, Time::from_days(2.0));
  for (const NodeMetrics& m : r.nodes) {
    const std::uint64_t resolved = m.delivered + m.exhausted + m.policy_drops + m.brownouts;
    EXPECT_GE(m.generated, resolved);
    EXPECT_LE(m.generated - resolved, 1u);
  }
}

TEST(UnconfirmedTraffic, CheaperPerPacketThanConfirmed) {
  // No RX windows and no retransmissions: TX+listen energy per delivered
  // packet drops.
  ScenarioConfig confirmed = lorawan_scenario(20, 43);
  ScenarioConfig unconfirmed = confirmed;
  unconfirmed.confirmed = false;
  const auto trace = build_shared_trace(confirmed);
  const ExperimentResult a = run_scenario(confirmed, Time::from_days(2.0), trace);
  const ExperimentResult b = run_scenario(unconfirmed, Time::from_days(2.0), trace);
  EXPECT_LT(b.summary.total_tx_energy.joules(), a.summary.total_tx_energy.joules());
}

TEST(UnconfirmedTraffic, BlamFallsBackToThetaOnly) {
  // Without a downlink there is no w_u dissemination: the proposed MAC
  // still respects theta but stays at w_u = 0 (utility-first).
  ScenarioConfig c = blam_scenario(10, 0.5, 44);
  c.confirmed = false;
  Network network{c};
  network.run_until(Time::from_days(3.0));
  for (const auto& node : network.nodes()) {
    EXPECT_DOUBLE_EQ(node->w_u(), 0.0);
    EXPECT_LE(node->battery().soc(), 0.5 + 1e-9);
  }
}

}  // namespace
}  // namespace blam
