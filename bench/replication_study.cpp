// Replication study: the headline LoRaWAN-vs-H-50 comparison under multiple
// independent seeds with 95% confidence intervals — establishes that the
// figure-level differences are not single-seed luck.
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "net/replication.hpp"

int run_program() {
  using namespace blam;
  using namespace blam::bench;

  // BLAM_SMOKE=1: a minutes-scale configuration for sanitizer CI legs that
  // run the full pipeline (typically with BLAM_AUDIT=1) rather than measure.
  const char* smoke_env = std::getenv("BLAM_SMOKE");
  const bool smoke = smoke_env != nullptr && smoke_env[0] == '1';
  const int nodes = smoke ? 20 : scaled(300, 100);
  const double days = smoke ? 14.0 : scaled(365.0, 60.0);
  const int reps = smoke ? 2 : scaled(10, 5);
  banner("Replication study - LoRaWAN vs H-50 vs GreedyGreen, " + std::to_string(reps) +
             " seeds, 95% CI",
         "H-50's RETX/energy/degradation advantages hold across seeds");

  const Time duration = Time::from_days(days);
  std::vector<std::vector<std::string>> rows;
  std::vector<ReplicatedSummary> summaries;
  // The outer protocol loop stays serial: replicate() already fans its
  // replications across the BLAM_JOBS sweep pool, and nesting pools would
  // only oversubscribe the machine.
  for (const ScenarioConfig& config :
       {lorawan_scenario(nodes, 1000), blam_scenario(nodes, 0.5, 1000),
        greedy_green_scenario(nodes, 1000)}) {
    std::printf("replicating %s ...\n", config.label.c_str());
    summaries.push_back(replicate(config, duration, reps));
  }

  std::printf("\n%-12s %-20s %-20s %-22s %-20s\n", "protocol", "PRR", "RETX/pkt",
              "degradation(mean)", "TXenergy[kJ]");
  for (const ReplicatedSummary& s : summaries) {
    std::printf("%-12s %-20s %-20s %-22s %.4g +/- %.2g\n", s.label.c_str(),
                s.prr.to_string().c_str(), s.retx.to_string().c_str(),
                s.degradation_mean.to_string().c_str(), s.tx_energy_j.mean / 1e3,
                s.tx_energy_j.half_width / 1e3);
    rows.push_back({s.label, CsvWriter::cell(s.prr.mean), CsvWriter::cell(s.prr.half_width),
                    CsvWriter::cell(s.retx.mean), CsvWriter::cell(s.retx.half_width),
                    CsvWriter::cell(s.degradation_mean.mean),
                    CsvWriter::cell(s.degradation_mean.half_width),
                    CsvWriter::cell(s.tx_energy_j.mean),
                    CsvWriter::cell(s.tx_energy_j.half_width)});
  }
  write_csv("replication_study",
            {"protocol", "prr", "prr_ci", "retx", "retx_ci", "deg", "deg_ci", "tx_j", "tx_j_ci"},
            rows);

  // Significance at a glance: do the H-50 vs LoRaWAN intervals overlap?
  const ReplicatedSummary& lorawan = summaries[0];
  const ReplicatedSummary& h50 = summaries[1];
  const bool retx_separated = h50.retx.hi() < lorawan.retx.lo();
  const bool deg_separated = h50.degradation_mean.hi() < lorawan.degradation_mean.lo();
  std::printf("\nH-50 vs LoRaWAN, non-overlapping 95%% CIs: RETX %s, degradation %s\n",
              retx_separated ? "YES" : "no", deg_separated ? "YES" : "no");
  std::printf("GreedyGreen shows energy-awareness alone does not fix degradation: deg %.5f vs "
              "H-50 %.5f\n",
              summaries[2].degradation_mean.mean, h50.degradation_mean.mean);
  return 0;
}

int main() { return blam::bench::guarded_main("replication_study", run_program); }
