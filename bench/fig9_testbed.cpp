// Fig. 9 — small-scale testbed: 10 nodes (Dragino SX1276 on RPi in the
// paper; simulated SX1276 here, with the battery emulated in software
// exactly as the paper's testbed does), one 125 kHz channel at SF10,
// 10-minute sampling period, 1-minute forecast windows, 24 hours,
// H-100 vs LoRaWAN. Paper shape: PRR 100% for both; degradation variance
// ~99.7% lower and cycle aging ~80% lower under the proposed MAC;
// H-100 has fewer RETX but higher latency.
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"

namespace {

blam::ScenarioConfig testbed_config(blam::PolicyKind policy, double theta, std::uint64_t seed) {
  using namespace blam;
  ScenarioConfig c;
  c.policy = policy;
  c.theta = theta;
  c.label = c.policy_label();
  c.seed = seed;
  c.n_nodes = 10;
  c.radius_m = 50.0;  // indoor lab deployment (paper Fig. 10)
  c.min_period = Time::from_minutes(10.0);
  c.max_period = Time::from_minutes(10.0);
  c.forecast_window = Time::from_minutes(1.0);
  c.uplink_channels = 1;  // "to emulate a larger network"
  c.downlink_channels = 1;
  c.sf_assignment = SfAssignment::kFixed;  // kFixedSf: SF10, as on the paper testbed
  return c;
}

}  // namespace

int run_program() {
  using namespace blam;
  using namespace blam::bench;

  banner("Fig. 9 - 24 h testbed: per-node degradation / RETX / latency, H-100 vs LoRaWAN",
         "PRR 100% for both; fair degradation distribution and ~80% lower cycle aging "
         "under the proposed MAC; LoRaWAN has lower latency");

  const std::uint64_t seed = 7;
  const auto trace = build_shared_trace(testbed_config(PolicyKind::kLorawan, 1.0, seed));
  const Time duration = Time::from_days(1.0);

  const ExperimentResult lorawan =
      run_scenario(testbed_config(PolicyKind::kLorawan, 1.0, seed), duration, trace);
  const ExperimentResult h100 =
      run_scenario(testbed_config(PolicyKind::kBlam, 1.0, seed), duration, trace);

  std::printf("\n%-6s | %-28s | %-28s\n", "", "LoRaWAN", "H-100");
  std::printf("%-6s | %10s %7s %8s | %10s %7s %8s\n", "node", "degr(e-6)", "retx", "lat(s)",
              "degr(e-6)", "retx", "lat(s)");
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < lorawan.nodes.size(); ++i) {
    const NodeMetrics& a = lorawan.nodes[i];
    const NodeMetrics& b = h100.nodes[i];
    std::printf("%-6zu | %10.3f %7.2f %8.2f | %10.3f %7.2f %8.2f\n", i, a.degradation * 1e6,
                a.avg_retx(), a.delivered_latency_s.mean(), b.degradation * 1e6, b.avg_retx(),
                b.delivered_latency_s.mean());
    rows.push_back({CsvWriter::cell(static_cast<std::uint64_t>(i)),
                    CsvWriter::cell(a.degradation), CsvWriter::cell(a.avg_retx()),
                    CsvWriter::cell(a.delivered_latency_s.mean()), CsvWriter::cell(b.degradation),
                    CsvWriter::cell(b.avg_retx()), CsvWriter::cell(b.delivered_latency_s.mean())});
  }
  write_csv("fig9_testbed",
            {"node", "lorawan_degradation", "lorawan_retx", "lorawan_latency_s",
             "h100_degradation", "h100_retx", "h100_latency_s"},
            rows);

  auto variance_of = [](const ExperimentResult& r, auto getter) {
    RunningStats stats;
    for (const NodeMetrics& m : r.nodes) stats.add(getter(m));
    return stats.variance();
  };
  auto sum_of = [](const ExperimentResult& r, auto getter) {
    double sum = 0.0;
    for (const NodeMetrics& m : r.nodes) sum += getter(m);
    return sum;
  };

  const double var_lorawan =
      variance_of(lorawan, [](const NodeMetrics& m) { return m.degradation; });
  const double var_h100 = variance_of(h100, [](const NodeMetrics& m) { return m.degradation; });
  const double cyc_lorawan = sum_of(lorawan, [](const NodeMetrics& m) { return m.cycle_linear; });
  const double cyc_h100 = sum_of(h100, [](const NodeMetrics& m) { return m.cycle_linear; });

  std::printf("\nPRR: LoRaWAN %.4f, H-100 %.4f (paper: both 100%%)\n", lorawan.summary.mean_prr,
              h100.summary.mean_prr);
  std::printf("degradation variance: H-100 %+.1f%% vs LoRaWAN (paper: ~-99.7%%)\n",
              var_lorawan > 0.0 ? 100.0 * (var_h100 / var_lorawan - 1.0) : 0.0);
  std::printf("cycle aging: H-100 %+.1f%% vs LoRaWAN (paper: ~-80%%)\n",
              cyc_lorawan > 0.0 ? 100.0 * (cyc_h100 / cyc_lorawan - 1.0) : 0.0);
  std::printf("avg RETX: LoRaWAN %.3f, H-100 %.3f; delivered latency: %.1f s vs %.1f s\n",
              lorawan.summary.mean_retx, h100.summary.mean_retx,
              lorawan.summary.mean_delivered_latency_s, h100.summary.mean_delivered_latency_s);
  return 0;
}

int main() { return blam::bench::guarded_main("fig9_testbed", run_program); }
