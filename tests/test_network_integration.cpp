// End-to-end integration tests: whole networks simulated for days and the
// paper-level behaviours asserted. Scales are kept small so the full suite
// stays fast; the bench binaries run the paper-scale versions.
#include <gtest/gtest.h>

#include "net/experiment.hpp"
#include "sim/shard_engine.hpp"

namespace blam {
namespace {

ScenarioConfig small(PolicyKind policy, double theta, int nodes = 20, std::uint64_t seed = 11) {
  ScenarioConfig c;
  c.policy = policy;
  c.theta = theta;
  c.n_nodes = nodes;
  c.seed = seed;
  c.label = c.policy_label();
  return c;
}

TEST(NetworkIntegration, ConfigValidationFiresOnBuild) {
  ScenarioConfig c = small(PolicyKind::kLorawan, 1.0);
  c.n_nodes = 0;
  EXPECT_THROW(ShardedNetwork{c}, std::invalid_argument);
  c = small(PolicyKind::kBlam, 0.0);
  EXPECT_THROW(ShardedNetwork{c}, std::invalid_argument);
  c = small(PolicyKind::kLorawan, 1.0);
  c.forecast_window = c.min_period + Time::from_minutes(1.0);
  EXPECT_THROW(ShardedNetwork{c}, std::invalid_argument);
  c = small(PolicyKind::kLorawan, 1.0);
  c.forecast_window = Time::from_us(c.max_period.us() / (kMaxForecastWindows + 1));
  EXPECT_THROW(ShardedNetwork{c}, std::invalid_argument);
}

TEST(NetworkIntegration, SingleNodeDeliversEverything) {
  // One node, no contention: every packet should be ACKed with zero
  // retransmissions during daylight-rich summer days.
  ScenarioConfig c = small(PolicyKind::kLorawan, 1.0, /*nodes=*/1);
  const ExperimentResult r = run_scenario(c, Time::from_days(2.0));
  ASSERT_EQ(r.nodes.size(), 1u);
  const NodeMetrics& m = r.nodes[0];
  EXPECT_GT(m.generated, 40u);  // periods 16-60 min over 2 days
  EXPECT_EQ(m.delivered, m.generated);
  EXPECT_EQ(m.retx, 0u);
  EXPECT_DOUBLE_EQ(m.avg_utility(), 1.0);  // always window 0
  EXPECT_GT(m.tx_energy.joules(), 0.0);
}

TEST(NetworkIntegration, SingleBlamNodeAlsoDelivers) {
  ScenarioConfig c = small(PolicyKind::kBlam, 0.5, /*nodes=*/1);
  const ExperimentResult r = run_scenario(c, Time::from_days(2.0));
  const NodeMetrics& m = r.nodes[0];
  EXPECT_GT(m.prr(), 0.95);
  EXPECT_EQ(m.retx, 0u);
}

TEST(NetworkIntegration, DeterministicAcrossRuns) {
  ScenarioConfig c = small(PolicyKind::kBlam, 0.5, 10);
  const ExperimentResult a = run_scenario(c, Time::from_days(1.0));
  const ExperimentResult b = run_scenario(c, Time::from_days(1.0));
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].generated, b.nodes[i].generated);
    EXPECT_EQ(a.nodes[i].delivered, b.nodes[i].delivered);
    EXPECT_EQ(a.nodes[i].tx_attempts, b.nodes[i].tx_attempts);
    EXPECT_DOUBLE_EQ(a.nodes[i].tx_energy.joules(), b.nodes[i].tx_energy.joules());
    EXPECT_DOUBLE_EQ(a.nodes[i].degradation, b.nodes[i].degradation);
  }
}

TEST(NetworkIntegration, SeedChangesOutcome) {
  const ExperimentResult a = run_scenario(small(PolicyKind::kLorawan, 1.0, 10, 1),
                                          Time::from_days(1.0));
  const ExperimentResult b = run_scenario(small(PolicyKind::kLorawan, 1.0, 10, 2),
                                          Time::from_days(1.0));
  EXPECT_NE(a.events_executed, b.events_executed);
}

TEST(NetworkIntegration, PacketAccountingIsConsistent) {
  for (PolicyKind policy : {PolicyKind::kLorawan, PolicyKind::kBlam, PolicyKind::kThetaOnly}) {
    const ExperimentResult r =
        run_scenario(small(policy, policy == PolicyKind::kLorawan ? 1.0 : 0.5, 30),
                     Time::from_days(3.0));
    for (const NodeMetrics& m : r.nodes) {
      // At the cutoff instant at most one packet per node is still in
      // flight (generated but not yet resolved).
      const std::uint64_t resolved = m.delivered + m.exhausted + m.policy_drops + m.brownouts;
      EXPECT_GE(m.generated, resolved) << "policy " << static_cast<int>(policy);
      EXPECT_LE(m.generated - resolved, 1u) << "policy " << static_cast<int>(policy);
      EXPECT_GE(m.tx_attempts, m.delivered);
      EXPECT_LE(m.retx, m.tx_attempts);
      EXPECT_EQ(m.latency_s.count(), resolved);
      EXPECT_LE(m.utility_sum, static_cast<double>(m.delivered) + 1e-9);
    }
  }
}

TEST(NetworkIntegration, GatewayCountersBalanceWithNodeAttempts) {
  const ExperimentResult r =
      run_scenario(small(PolicyKind::kLorawan, 1.0, 25), Time::from_days(2.0));
  std::uint64_t attempts = 0;
  for (const NodeMetrics& m : r.nodes) attempts += m.tx_attempts;
  EXPECT_EQ(r.gateway.arrivals, attempts);
  // Receptions in flight at the cutoff are counted as arrivals but have no
  // outcome yet; there can be at most one per node. Duplicates are a subset
  // of `received`, not a separate outcome.
  const std::uint64_t outcomes = r.gateway.received + r.gateway.lost_interference +
                                 r.gateway.lost_half_duplex + r.gateway.lost_no_demod_path +
                                 r.gateway.lost_under_sensitivity;
  EXPECT_GE(r.gateway.arrivals, outcomes);
  EXPECT_LE(r.gateway.arrivals - outcomes, r.nodes.size());
  EXPECT_LE(r.gateway.duplicates, r.gateway.received);
  EXPECT_LE(r.gateway.acks_sent, r.gateway.received);
}

TEST(NetworkIntegration, LorawanAlwaysUsesWindowZero) {
  const ExperimentResult r =
      run_scenario(small(PolicyKind::kLorawan, 1.0, 10), Time::from_days(1.0));
  ASSERT_FALSE(r.window_histogram.empty());
  int nodes_with_majority = 0;
  for (std::size_t w = 1; w < r.window_histogram.size(); ++w) {
    EXPECT_EQ(r.window_histogram[w], 0);
  }
  nodes_with_majority = r.window_histogram[0];
  EXPECT_EQ(nodes_with_majority, 10);
}

TEST(NetworkIntegration, BlamSpreadsAcrossWindows) {
  // Needs enough contention for the retransmission estimator to learn that
  // window 0 is crowded.
  const ExperimentResult r =
      run_scenario(small(PolicyKind::kBlam, 0.5, 150), Time::from_days(10.0));
  int beyond_first = 0;
  for (std::size_t w = 1; w < r.window_histogram.size(); ++w) beyond_first += r.window_histogram[w];
  EXPECT_GT(beyond_first, 0);  // at least some nodes settle past window 0
}

TEST(NetworkIntegration, ThetaCapHoldsThroughout) {
  ScenarioConfig c = small(PolicyKind::kBlam, 0.5, 10);
  ShardedNetwork network{c};
  network.run_until(Time::from_days(2.0));
  for (std::uint32_t id = 0; id < 10; ++id) {
    EXPECT_LE(network.node(id).battery().soc(), 0.5 + 1e-9);
  }
}

TEST(NetworkIntegration, SocReportsReachTheGatewayService) {
  ScenarioConfig c = small(PolicyKind::kBlam, 0.5, 5);
  ShardedNetwork network{c};
  network.run_until(Time::from_days(2.0));
  // After two days (and daily recomputes) every node has a degradation
  // estimate derived from its reported trace.
  for (std::uint32_t id = 0; id < 5; ++id) {
    EXPECT_GT(network.slice(0).server().service().degradation(id), 0.0);
  }
}

TEST(NetworkIntegration, WuFeedbackReachesNodes) {
  ScenarioConfig c = small(PolicyKind::kBlam, 0.5, 10);
  ShardedNetwork network{c};
  network.run_until(Time::from_days(3.0));
  int with_w = 0;
  for (std::uint32_t id = 0; id < 10; ++id) {
    if (network.node(id).w_u() > 0.0) ++with_w;
  }
  // w_u = D_u / D_max: the most-degraded node has w = 1 and others are
  // generally positive once dissemination starts.
  EXPECT_GT(with_w, 5);
}

TEST(NetworkIntegration, RunUntilEolTerminates) {
  // Accelerated aging so the test completes quickly: crank calendar rate.
  ScenarioConfig c = small(PolicyKind::kLorawan, 1.0, 5);
  c.degradation.k1 = 4.14e-7;  // 1000x faster
  const LifespanResult r = run_until_eol(c, Time::from_days(100.0), Time::from_days(1.0));
  EXPECT_TRUE(r.reached_eol);
  EXPECT_GT(r.lifespan, Time::zero());
  EXPECT_LT(r.lifespan, Time::from_days(100.0));
  EXPECT_FALSE(r.max_degradation_series.empty());
  // Series is monotone.
  for (std::size_t i = 1; i < r.max_degradation_series.size(); ++i) {
    EXPECT_GE(r.max_degradation_series[i], r.max_degradation_series[i - 1]);
  }
  EXPECT_GE(r.max_degradation_series.back(), 0.2);
}

TEST(NetworkIntegration, SharedTraceGivesIdenticalWeather) {
  ScenarioConfig base = small(PolicyKind::kLorawan, 1.0, 5);
  const auto trace = build_shared_trace(base);
  ShardedNetwork a{small(PolicyKind::kBlam, 0.5, 5), trace};
  ShardedNetwork b{small(PolicyKind::kLorawan, 1.0, 5), trace};
  EXPECT_EQ(trace.use_count(), 3);  // both networks hold this one trace
}

TEST(NetworkIntegration, GreedyGreenSavesEnergyNotLifespan) {
  // The related-work contrast: the energy-aware baseline cuts TX energy vs
  // LoRaWAN but keeps (roughly) LoRaWAN's degradation, while H-50 cuts both.
  const int nodes = 60;
  const std::uint64_t seed = 4;
  const auto trace = build_shared_trace(lorawan_scenario(nodes, seed));
  const Time duration = Time::from_days(20.0);
  const ExperimentResult lorawan =
      run_scenario(lorawan_scenario(nodes, seed), duration, trace);
  const ExperimentResult green =
      run_scenario(greedy_green_scenario(nodes, seed), duration, trace);
  const ExperimentResult h50 = run_scenario(blam_scenario(nodes, 0.5, seed), duration, trace);
  EXPECT_LT(green.summary.total_tx_energy.joules(), lorawan.summary.total_tx_energy.joules());
  EXPECT_GT(green.summary.degradation_box.mean, h50.summary.degradation_box.mean * 1.2);
}

TEST(NetworkIntegration, AdrConvergesStrongLinksDown) {
  // Nodes start at SF10/14 dBm (the fixed default) on easy links; with ADR
  // enabled the server steps them down to SF7 and lower power, cutting TX
  // energy versus the ADR-off twin.
  ScenarioConfig with_adr = small(PolicyKind::kLorawan, 1.0, 15);
  with_adr.radius_m = 500.0;  // strong links
  with_adr.adr_enabled = true;
  ScenarioConfig without_adr = with_adr;
  without_adr.adr_enabled = false;

  ShardedNetwork adr_net{with_adr};
  adr_net.run_until(Time::from_days(2.0));
  adr_net.finalize_metrics();
  int stepped_down = 0;
  for (std::uint32_t id = 0; id < 15; ++id) {
    const Node& node = adr_net.node(id);
    if (sf_value(node.sf()) < 10 || node.radio_params().tx_power_dbm < 14.0) ++stepped_down;
  }
  EXPECT_GT(stepped_down, 10);

  const ExperimentResult off = run_scenario(without_adr, Time::from_days(2.0));
  ExperimentResult on;
  {
    ShardedNetwork net{with_adr};
    net.run_until(Time::from_days(2.0));
    net.finalize_metrics();
    on.summary = net.metrics().summarize();
  }
  EXPECT_LT(on.summary.total_tx_energy.joules(), off.summary.total_tx_energy.joules());
  EXPECT_GT(on.summary.mean_prr, 0.95);
}

TEST(NetworkIntegration, DistanceBasedSfAssignsMix) {
  ScenarioConfig c = small(PolicyKind::kLorawan, 1.0, 60);
  c.sf_assignment = SfAssignment::kDistanceBased;
  c.radius_m = 7000.0;
  c.path_loss.shadowing_sigma_db = 6.0;
  ShardedNetwork network{c};
  int low_sf = 0;
  int high_sf = 0;
  for (std::uint32_t id = 0; id < 60; ++id) {
    (sf_value(network.node(id).sf()) <= 8 ? low_sf : high_sf) += 1;
  }
  EXPECT_GT(low_sf, 0);
  EXPECT_GT(high_sf, 0);
  network.run_until(Time::from_days(1.0));
  network.finalize_metrics();
  EXPECT_GT(network.metrics().summarize().mean_prr, 0.5);
}

}  // namespace
}  // namespace blam
