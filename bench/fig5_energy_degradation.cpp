// Fig. 5 — (a) avg retransmission attempts, (b) total TX energy, and
// (c) battery degradation distribution under charging thresholds
// theta in {0.05, 0.5, 1.0} vs LoRaWAN, 500 nodes over 5 years.
// Paper shape: every H-x cuts RETX (H-50 by ~70%) and TX energy; H-50
// reduces mean degradation ~22% and its variance ~91%; H-5 degrades least.
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"

int run_program() {
  using namespace blam;
  using namespace blam::bench;

  const int nodes = scaled(500, 200);
  const double years = scaled(5.0, 1.0);
  banner("Fig. 5 - RETX / TX energy / degradation vs charging threshold",
         "H-x < LoRaWAN on all three; H-50 cuts RETX ~70% and degradation variance ~91%");

  const ProtocolSweep sweep = run_protocol_sweep(nodes, years, /*seed=*/42);

  std::printf("\n(a) avg RETX per packet   (b) TX energy [kJ]   (c) degradation\n");
  std::printf("%-10s %10s %14s %12s %12s %12s %10s\n", "protocol", "avg_retx", "tx_energy_kJ",
              "deg_mean", "deg_q1", "deg_q3", "outliers");
  std::vector<std::vector<std::string>> rows;
  for (const auto& r : sweep.results) {
    const auto& box = r.summary.degradation_box;
    std::printf("%-10s %10.3f %14.1f %12.6f %12.6f %12.6f %10zu\n", r.label.c_str(),
                r.summary.mean_retx, r.summary.total_tx_energy.joules() / 1e3, box.mean, box.q1,
                box.q3, box.outliers);
    rows.push_back({r.label, CsvWriter::cell(r.summary.mean_retx),
                    CsvWriter::cell(r.summary.total_tx_energy.joules()),
                    CsvWriter::cell(box.mean), CsvWriter::cell(box.q1),
                    CsvWriter::cell(box.median), CsvWriter::cell(box.q3),
                    CsvWriter::cell(box.min), CsvWriter::cell(box.max),
                    CsvWriter::cell(static_cast<std::uint64_t>(box.outliers))});
  }
  write_csv("fig5_energy_degradation",
            {"protocol", "avg_retx", "tx_energy_j", "deg_mean", "deg_q1", "deg_median", "deg_q3",
             "deg_min", "deg_max", "deg_outliers"},
            rows);

  const auto& lorawan = sweep.results[0].summary;
  const auto& h50 = sweep.results[2].summary;
  std::printf("\nH-50 vs LoRaWAN: RETX %+.1f%% (paper: -69.9%%), TX energy %+.1f%%, "
              "mean degradation %+.1f%% (paper: -21.9%%)\n",
              100.0 * (h50.mean_retx / lorawan.mean_retx - 1.0),
              100.0 * (h50.total_tx_energy / lorawan.total_tx_energy - 1.0),
              100.0 * (h50.degradation_box.mean / lorawan.degradation_box.mean - 1.0));
  return 0;
}

int main() { return blam::bench::guarded_main("fig5_energy_degradation", run_program); }
