// Fig. 6 — (a) avg utility, (b) PRR, and (c) avg latency under charging
// thresholds theta in {0.05, 0.5, 1.0} vs LoRaWAN, 500 nodes over 5 years.
// Paper shape: LoRaWAN's utility/PRR spread wide (min PRR 63.9%); H-50
// improves avg utility (up to +39%) and PRR (up to +54%); LoRaWAN's
// delivered latency stays low (<=35 s) while H-50 trades latency (~247 s at
// w_b = 1) for battery lifespan; H-5 loses packets to its tiny cap.
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"

int run_program() {
  using namespace blam;
  using namespace blam::bench;

  const int nodes = scaled(500, 200);
  const double years = scaled(5.0, 1.0);
  banner("Fig. 6 - utility / PRR / latency vs charging threshold",
         "H-50 beats LoRaWAN on utility and PRR; latency is the configurable price");

  const ProtocolSweep sweep = run_protocol_sweep(nodes, years, /*seed=*/42);

  std::printf("\n%-10s %10s %10s %10s %10s %14s %16s\n", "protocol", "util_mean", "util_min",
              "prr_mean", "prr_min", "latency_pen_s", "latency_deliv_s");
  std::vector<std::vector<std::string>> rows;
  for (const auto& r : sweep.results) {
    std::printf("%-10s %10.4f %10.4f %10.4f %10.4f %14.2f %16.2f\n", r.label.c_str(),
                r.summary.utility_box.mean, r.summary.utility_box.min, r.summary.prr_box.mean,
                r.summary.prr_box.min, r.summary.mean_latency_s,
                r.summary.mean_delivered_latency_s);
    rows.push_back({r.label, CsvWriter::cell(r.summary.utility_box.mean),
                    CsvWriter::cell(r.summary.utility_box.min),
                    CsvWriter::cell(r.summary.prr_box.mean),
                    CsvWriter::cell(r.summary.prr_box.min),
                    CsvWriter::cell(r.summary.mean_latency_s),
                    CsvWriter::cell(r.summary.mean_delivered_latency_s),
                    CsvWriter::cell(r.summary.max_delivered_latency_s)});
  }
  write_csv("fig6_network_performance",
            {"protocol", "utility_mean", "utility_min", "prr_mean", "prr_min",
             "latency_penalized_s", "latency_delivered_s", "latency_delivered_max_s"},
            rows);

  const auto& lorawan = sweep.results[0].summary;
  const auto& h50 = sweep.results[2].summary;
  std::printf("\nH-50 vs LoRaWAN: utility %+.1f%% (paper: up to +39%%), mean PRR %+.1f%% "
              "(paper: up to +54%% at the min), delivered latency %.0f s vs %.0f s "
              "(paper: 247 s vs <=35 s)\n",
              100.0 * (h50.utility_box.mean / lorawan.utility_box.mean - 1.0),
              100.0 * (h50.prr_box.mean / lorawan.prr_box.mean - 1.0),
              h50.mean_delivered_latency_s, lorawan.mean_delivered_latency_s);
  return 0;
}

int main() { return blam::bench::guarded_main("fig6_network_performance", run_program); }
