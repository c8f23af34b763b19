// Ablation — the design knobs DESIGN.md calls out:
//   (1) w_b sweep: the paper states "latency is configurable by the weight
//       w_b; low values of w_b result in lower latency at the cost of a
//       lower battery lifespan" — regenerate that trade-off curve.
//   (2) utility-function sweep: the protocol is parametric in mu; compare
//       linear (Eq. 16), exponential and step utilities at w_b = 1.
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"

int run_program() {
  using namespace blam;
  using namespace blam::bench;

  const int nodes = scaled(300, 120);
  const double days = scaled(365.0, 120.0);
  banner("Ablation - w_b sweep and utility-function sweep (H-50)",
         "lower w_b -> lower latency but faster degradation; any monotone utility works");

  const std::uint64_t seed = 42;
  const auto trace = build_shared_trace(lorawan_scenario(nodes, seed));
  const Time duration = Time::from_days(days);

  std::printf("\n(1) w_b sweep\n");
  std::printf("%6s %14s %12s %12s %12s\n", "w_b", "latency_del_s", "utility", "deg_mean",
              "retx");
  const std::vector<double> wbs{0.0, 0.25, 0.5, 0.75, 1.0};
  std::vector<ScenarioCell> wb_cells;
  for (double w_b : wbs) {
    ScenarioConfig config = blam_scenario(nodes, 0.5, seed);
    config.w_b = w_b;
    wb_cells.push_back({std::move(config), trace});
  }
  const std::vector<ExperimentResult> wb_results =
      run_scenarios(wb_cells, duration, campaign_options());
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < wbs.size(); ++i) {
    const ExperimentResult& r = wb_results[i];
    std::printf("%6.2f %14.2f %12.4f %12.6f %12.3f\n", wbs[i],
                r.summary.mean_delivered_latency_s, r.summary.utility_box.mean,
                r.summary.degradation_box.mean, r.summary.mean_retx);
    rows.push_back({CsvWriter::cell(wbs[i]),
                    CsvWriter::cell(r.summary.mean_delivered_latency_s),
                    CsvWriter::cell(r.summary.utility_box.mean),
                    CsvWriter::cell(r.summary.degradation_box.mean),
                    CsvWriter::cell(r.summary.mean_retx)});
  }
  write_csv("ablation_wb", {"w_b", "latency_delivered_s", "utility_mean", "deg_mean", "retx"},
            rows);

  std::printf("\n(2) utility-function sweep (w_b = 1)\n");
  std::printf("%-14s %14s %12s %12s\n", "utility", "latency_del_s", "prr", "deg_mean");
  const std::vector<std::pair<UtilityKind, const char*>> utilities{
      {UtilityKind::kLinear, "linear"},
      {UtilityKind::kExponential, "exponential"},
      {UtilityKind::kStep, "step"}};
  std::vector<ScenarioCell> u_cells;
  for (const auto& [kind, name] : utilities) {
    ScenarioConfig config = blam_scenario(nodes, 0.5, seed);
    config.utility = kind;
    u_cells.push_back({std::move(config), trace});
  }
  const std::vector<ExperimentResult> u_results =
      run_scenarios(u_cells, duration, campaign_options());
  std::vector<std::vector<std::string>> urows;
  for (std::size_t i = 0; i < utilities.size(); ++i) {
    const ExperimentResult& r = u_results[i];
    const char* name = utilities[i].second;
    std::printf("%-14s %14.2f %12.4f %12.6f\n", name, r.summary.mean_delivered_latency_s,
                r.summary.prr_box.mean, r.summary.degradation_box.mean);
    urows.push_back({name, CsvWriter::cell(r.summary.mean_delivered_latency_s),
                     CsvWriter::cell(r.summary.prr_box.mean),
                     CsvWriter::cell(r.summary.degradation_box.mean)});
  }
  write_csv("ablation_utility", {"utility", "latency_delivered_s", "prr_mean", "deg_mean"},
            urows);
  return 0;
}

int main() { return blam::bench::guarded_main("ablation_weights", run_program); }
