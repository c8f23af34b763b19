// Fig. 7 — "Max degradation (%) of the nodes": maximum battery degradation
// in the network at the end of every month, simulated until the first node
// reaches 20% (EoL), for LoRaWAN vs H-50 vs H-50C (theta cap without window
// selection), 100 nodes. Paper shape: LoRaWAN degrades fastest and hits EoL
// around month ~98 (8.1 years); H-50 and H-50C stay well below it.
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"

int run_program() {
  using namespace blam;
  using namespace blam::bench;

  const int nodes = scaled(100, 40);
  const double max_years = 20.0;
  banner("Fig. 7 - monthly max degradation until first EoL",
         "LoRaWAN degrades fastest (EoL ~8.1 y); H-50/H-50C far slower");

  const std::uint64_t seed = 42;
  const auto trace = build_shared_trace(lorawan_scenario(nodes, seed));
  const Time step = Time::from_days(30.44);
  const Time max_duration = Time::from_days(365.0 * max_years);

  const std::vector<ScenarioCell> cells{{lorawan_scenario(nodes, seed), trace},
                                        {blam_scenario(nodes, 0.5, seed), trace},
                                        {theta_only_scenario(nodes, 0.5, seed), trace}};
  std::printf("running %zu protocols until EoL (up to %.0f years) ...\n", cells.size(),
              max_years);
  const std::vector<LifespanResult> results =
      run_lifespans(cells, max_duration, step, campaign_options());

  std::printf("\n%-8s", "month");
  for (const auto& r : results) std::printf(" %12s", r.label.c_str());
  std::printf("\n");

  std::size_t longest = 0;
  for (const auto& r : results) {
    longest = std::max(longest, r.max_degradation_series.size());
  }
  std::vector<std::vector<std::string>> rows;
  for (std::size_t m = 0; m < longest; ++m) {
    std::vector<std::string> row{CsvWriter::cell(static_cast<std::int64_t>(m + 1))};
    const bool print = (m + 1) % 6 == 0 || m == 0 || m + 1 == longest;
    if (print) std::printf("%-8zu", m + 1);
    for (const auto& r : results) {
      if (m < r.max_degradation_series.size()) {
        if (print) std::printf(" %12.4f", r.max_degradation_series[m]);
        row.push_back(CsvWriter::cell(r.max_degradation_series[m]));
      } else {
        if (print) std::printf(" %12s", "EOL");
        row.push_back("");
      }
    }
    if (print) std::printf("\n");
    rows.push_back(row);
  }
  write_csv("fig7_lifespan_trace", {"month", "LoRaWAN", "H-50", "H-50C"}, rows);

  std::printf("\nfirst EoL: ");
  for (const auto& r : results) {
    std::printf("%s=%.0f days (%.2f y)%s  ", r.label.c_str(), r.lifespan.days(),
                r.lifespan.days() / 365.0, r.reached_eol ? "" : " [not reached]");
  }
  std::printf("\n");
  return 0;
}

int main() { return blam::bench::guarded_main("fig7_lifespan_trace", run_program); }
