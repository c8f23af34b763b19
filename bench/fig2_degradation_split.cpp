// Fig. 2 — "Battery degradation": calendar vs cycle vs total degradation of
// a regular LoRa (LoRaWAN) node over 5 years, 100 nodes with random
// transmission intervals in [16, 60] minutes. The paper's takeaway:
// calendar aging dominates cycle aging by a wide margin.
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "sim/shard_engine.hpp"

int run_program() {
  using namespace blam;
  using namespace blam::bench;

  const int nodes = scaled(100, 100);
  const double years = scaled(5.0, 2.0);
  banner("Fig. 2 - degradation split (calendar vs cycle) over " + std::to_string(years) +
             " years, LoRaWAN",
         "calendar aging dominates; cycle aging is a small fraction of total");

  ScenarioConfig config = lorawan_scenario(nodes, /*seed=*/42);
  ShardedNetwork network{config};
  const DegradationModel model{config.degradation};

  std::printf("%8s %14s %14s %14s %14s\n", "month", "calendar_lin", "cycle_lin", "D_calendar",
              "D_total");
  std::vector<std::vector<std::string>> rows;
  const int months = static_cast<int>(years * 12.0);
  double cal = 0.0;  // the fleet means of the month last run
  double cyc = 0.0;
  for (int month = 1; month <= months; ++month) {
    const Time now = Time::from_days(30.44 * month);
    network.run_until(now);
    cal = 0.0;
    cyc = 0.0;
    double total = 0.0;
    for (std::uint32_t id = 0; id < static_cast<std::uint32_t>(nodes); ++id) {
      const auto& tracker = network.node(id).tracker();
      cal += tracker.calendar_linear(now);
      cyc += tracker.cycle_linear();
      total += tracker.degradation(now);
    }
    const double inv = 1.0 / static_cast<double>(nodes);
    cal *= inv;
    cyc *= inv;
    total *= inv;
    const double d_cal_only = model.nonlinear(cal);
    if (month % 3 == 0 || month == 1) {
      std::printf("%8d %14.6f %14.6f %14.6f %14.6f\n", month, cal, cyc, d_cal_only, total);
    }
    rows.push_back({CsvWriter::cell(static_cast<std::int64_t>(month)), CsvWriter::cell(cal),
                    CsvWriter::cell(cyc), CsvWriter::cell(d_cal_only), CsvWriter::cell(total)});
  }

  write_csv("fig2_degradation_split", {"month", "calendar_linear", "cycle_linear",
                                       "degradation_calendar_only", "degradation_total"},
            rows);

  // Shape check mirrored from the paper.
  std::printf("\ncalendar/cycle ratio at end: %.1fx  (paper: calendar >> cycle)\n",
              cyc > 0.0 ? cal / cyc : 0.0);
  return 0;
}

int main() { return blam::bench::guarded_main("fig2_degradation_split", run_program); }
