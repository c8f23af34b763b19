// Fig. 8 — "Network Battery lifespan": days from deployment until the first
// battery reaches EoL, for LoRaWAN vs H-50 vs H-50C (100 nodes). Paper:
// LoRaWAN 2980 days (8.1 y); H-50 ~13.86 y (+69.7%, i.e. LoRaWAN is 41.09%
// lower); H-50C close to H-50.
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"

int run_program() {
  using namespace blam;
  using namespace blam::bench;

  const int nodes = scaled(100, 40);
  banner("Fig. 8 - network battery lifespan (first EoL)",
         "LoRaWAN ~2980 days (8.1 y); H-50 ~13.9 y (+69.7%); H-50C similar to H-50");

  const std::uint64_t seed = 42;
  const auto trace = build_shared_trace(lorawan_scenario(nodes, seed));
  const Time step = Time::from_days(30.44);
  const Time max_duration = Time::from_days(365.0 * 25.0);

  const std::vector<ScenarioCell> cells{{lorawan_scenario(nodes, seed), trace},
                                        {blam_scenario(nodes, 0.5, seed), trace},
                                        {theta_only_scenario(nodes, 0.5, seed), trace}};
  std::printf("running %zu protocols until EoL ...\n", cells.size());
  // With BLAM_JOURNAL set (campaign_options()), a killed run resumes here
  // skipping completed cells.
  const std::vector<LifespanResult> results =
      run_lifespans(cells, max_duration, step, campaign_options());

  std::printf("\n%-10s %12s %10s %12s\n", "protocol", "days", "years", "vs LoRaWAN");
  std::vector<std::vector<std::string>> rows;
  const double base_days = results[0].lifespan.days();
  for (const auto& r : results) {
    const double days = r.lifespan.days();
    std::printf("%-10s %12.0f %10.2f %+11.1f%%%s\n", r.label.c_str(), days, days / 365.0,
                100.0 * (days / base_days - 1.0), r.reached_eol ? "" : "  [not reached]");
    rows.push_back({r.label, CsvWriter::cell(days), CsvWriter::cell(days / 365.0),
                    CsvWriter::cell(100.0 * (days / base_days - 1.0))});
  }
  write_csv("fig8_lifespan", {"protocol", "days", "years", "improvement_pct"}, rows);

  std::printf("\npaper: H-50 improves battery lifespan by up to 69.7%% over LoRaWAN\n");
  return 0;
}

int main() { return blam::bench::guarded_main("fig8_lifespan", run_program); }
