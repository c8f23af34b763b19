// Model-independence ablation: the paper argues its formulation "does not
// depend on any specific battery degradation model" (Sec. III). Rerun the
// LoRaWAN vs H-50 comparison under three chemistry parameterizations (the
// Xu et al. LMO fit plus NMC- and LFP-like presets) and check the protocol's
// advantage survives each.
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"

int run_program() {
  using namespace blam;
  using namespace blam::bench;

  const int nodes = scaled(200, 80);
  const double days = scaled(365.0, 90.0);
  banner("Ablation - battery chemistry (LMO / NMC / LFP presets)",
         "H-50 reduces degradation versus LoRaWAN under every chemistry");

  const std::uint64_t seed = 42;
  const Time duration = Time::from_days(days);

  // One grid over chemistry x protocol: cells [2k] = LoRaWAN, [2k+1] = H-50
  // under chemistry k, with per-chemistry shared weather.
  const std::vector<std::pair<const char*, DegradationParams>> chemistries{
      {"LMO", DegradationParams::lmo()},
      {"NMC", DegradationParams::nmc()},
      {"LFP", DegradationParams::lfp()}};
  std::vector<ScenarioCell> cells;
  for (const auto& [name, params] : chemistries) {
    ScenarioConfig lorawan = lorawan_scenario(nodes, seed);
    lorawan.degradation = params;
    ScenarioConfig h50 = blam_scenario(nodes, 0.5, seed);
    h50.degradation = params;
    const auto trace = build_shared_trace(lorawan);
    cells.push_back({std::move(lorawan), trace});
    cells.push_back({std::move(h50), trace});
  }
  const std::vector<ExperimentResult> results = run_scenarios(cells, duration, campaign_options());

  std::printf("\n%-6s %14s %14s %12s\n", "chem", "LoRaWAN_deg", "H-50_deg", "improvement");
  std::vector<std::vector<std::string>> rows;
  for (std::size_t k = 0; k < chemistries.size(); ++k) {
    const char* name = chemistries[k].first;
    const ExperimentResult& a = results[2 * k];
    const ExperimentResult& b = results[2 * k + 1];
    const double improvement =
        100.0 * (1.0 - b.summary.degradation_box.mean / a.summary.degradation_box.mean);
    std::printf("%-6s %14.6f %14.6f %11.1f%%\n", name, a.summary.degradation_box.mean,
                b.summary.degradation_box.mean, improvement);
    rows.push_back({name, CsvWriter::cell(a.summary.degradation_box.mean),
                    CsvWriter::cell(b.summary.degradation_box.mean),
                    CsvWriter::cell(improvement)});
  }
  write_csv("ablation_chemistry", {"chemistry", "lorawan_deg", "h50_deg", "improvement_pct"},
            rows);
  return 0;
}

int main() { return blam::bench::guarded_main("ablation_chemistry", run_program); }
