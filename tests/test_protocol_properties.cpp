// Property-style comparisons between protocols — the paper's qualitative
// claims, asserted on shared weather and topology so only the MAC differs.
#include <gtest/gtest.h>

#include "net/experiment.hpp"

namespace blam {
namespace {

struct Comparison {
  ExperimentResult lorawan;
  ExperimentResult h50;
};

// One congested month (contention comparable to the paper's 500-node
// setup), shared across tests in this file.
const Comparison& comparison() {
  static const Comparison c = [] {
    const int nodes = 250;
    const std::uint64_t seed = 3;
    const ScenarioConfig base = lorawan_scenario(nodes, seed);
    const auto trace = build_shared_trace(base);
    Comparison out;
    const Time duration = Time::from_days(30.0);
    out.lorawan = run_scenario(base, duration, trace);
    out.h50 = run_scenario(blam_scenario(nodes, 0.5, seed), duration, trace);
    return out;
  }();
  return c;
}

TEST(ProtocolProperties, BlamReducesRetransmissions) {
  // Paper Fig. 5a: H-50 cuts average retransmissions dramatically.
  EXPECT_LT(comparison().h50.summary.mean_retx, 0.5 * comparison().lorawan.summary.mean_retx);
}

TEST(ProtocolProperties, BlamReducesTxEnergy) {
  // Paper Fig. 5b.
  EXPECT_LT(comparison().h50.summary.total_tx_energy.joules(),
            comparison().lorawan.summary.total_tx_energy.joules());
}

TEST(ProtocolProperties, BlamReducesMeanDegradation) {
  // Paper Fig. 5c: lower mean and lower variance.
  EXPECT_LT(comparison().h50.summary.degradation_box.mean,
            comparison().lorawan.summary.degradation_box.mean);
  const double spread_lorawan = comparison().lorawan.summary.degradation_box.max -
                                comparison().lorawan.summary.degradation_box.min;
  const double spread_h50 =
      comparison().h50.summary.degradation_box.max - comparison().h50.summary.degradation_box.min;
  EXPECT_LT(spread_h50, spread_lorawan);
}

TEST(ProtocolProperties, BlamImprovesPrrAndUtilityUnderLoad) {
  // Paper Fig. 6a/6b.
  EXPECT_GT(comparison().h50.summary.mean_prr, comparison().lorawan.summary.mean_prr);
  EXPECT_GT(comparison().h50.summary.min_prr, comparison().lorawan.summary.min_prr);
  EXPECT_GT(comparison().h50.summary.mean_utility, comparison().lorawan.summary.mean_utility);
}

TEST(ProtocolProperties, BlamKeepsMeanSocNearTheta) {
  double soc_lorawan = 0.0;
  double soc_h50 = 0.0;
  for (const NodeMetrics& m : comparison().lorawan.nodes) soc_lorawan += m.mean_soc;
  for (const NodeMetrics& m : comparison().h50.nodes) soc_h50 += m.mean_soc;
  soc_lorawan /= static_cast<double>(comparison().lorawan.nodes.size());
  soc_h50 /= static_cast<double>(comparison().h50.nodes.size());
  // The paper's premise: the baseline holds a much higher SoC than the
  // theta-capped MAC (under heavy load retransmissions pull it below the
  // idle ~0.9 of uncongested networks).
  EXPECT_GT(soc_lorawan, 0.55);
  EXPECT_LT(soc_h50, 0.5);
  EXPECT_GT(soc_h50, 0.3);
}

TEST(ProtocolProperties, CalendarAgingDominatesCycleAging) {
  // Paper Fig. 2: calendar aging is the dominant component.
  for (const auto* result : {&comparison().lorawan, &comparison().h50}) {
    double cal = 0.0;
    double cyc = 0.0;
    for (const NodeMetrics& m : result->nodes) {
      cal += m.calendar_linear;
      cyc += m.cycle_linear;
    }
    EXPECT_GT(cal, 2.0 * cyc) << result->label;
  }
}

TEST(ProtocolProperties, ThetaOnlyAblationSitsBetween) {
  // H-50C (cap without window selection) fixes calendar aging but not the
  // collision/retransmission behaviour: degradation near H-50, RETX near
  // LoRaWAN (paper Figs. 7-8 rationale).
  const int nodes = 250;
  const std::uint64_t seed = 3;
  const auto trace = build_shared_trace(lorawan_scenario(nodes, seed));
  const ExperimentResult h50c =
      run_scenario(theta_only_scenario(nodes, 0.5, seed), Time::from_days(30.0), trace);
  EXPECT_GT(h50c.summary.mean_retx, comparison().h50.summary.mean_retx);
  EXPECT_LT(h50c.summary.degradation_box.mean,
            comparison().lorawan.summary.degradation_box.mean);
}

TEST(ProtocolProperties, LowThetaTradesPrrForLifespan) {
  // Paper Fig. 5c/6b: H-5 degrades least but pays with packet drops.
  const int nodes = 30;
  const std::uint64_t seed = 9;
  const auto trace = build_shared_trace(lorawan_scenario(nodes, seed));
  const Time duration = Time::from_days(20.0);
  const ExperimentResult h5 = run_scenario(blam_scenario(nodes, 0.05, seed), duration, trace);
  const ExperimentResult h50 = run_scenario(blam_scenario(nodes, 0.5, seed), duration, trace);
  EXPECT_LE(h5.summary.degradation_box.mean, h50.summary.degradation_box.mean);
  EXPECT_LT(h5.summary.mean_prr, h50.summary.mean_prr);
}

TEST(ProtocolProperties, WbZeroRecoversLowLatencyBehaviour) {
  // With w_b = 0 the degradation term vanishes: window selection reverts to
  // pure utility, i.e. (almost) window 0 like LoRaWAN, trading lifespan for
  // latency (paper Sec. IV-A: "latency is configurable by the weight w_b").
  const int nodes = 30;
  const std::uint64_t seed = 5;
  ScenarioConfig eager = blam_scenario(nodes, 0.5, seed);
  eager.w_b = 0.0;
  const auto trace = build_shared_trace(eager);
  const ExperimentResult with_wb =
      run_scenario(blam_scenario(nodes, 0.5, seed), Time::from_days(15.0), trace);
  const ExperimentResult without_wb = run_scenario(eager, Time::from_days(15.0), trace);
  EXPECT_GE(with_wb.summary.mean_latency_s, without_wb.summary.mean_latency_s);
  EXPECT_GT(without_wb.summary.mean_utility, 0.9);
}

}  // namespace
}  // namespace blam
