// Oracle gap: how close does the distributed, online Algorithm 1 get to the
// clairvoyant centralized TDMA formulation (paper Sec. III-A)?
//
// The oracle sees true future harvest, has zero collisions and a hard slot
// capacity; Algorithm 1 is local, asynchronous and learns from collisions.
// We build identical per-node inputs (same solar year, same periods, same
// transmission cost) and compare scheduled utility and drop rates across a
// day, for fresh (w_u ~ 0) and degraded (w_u ~ 1) populations.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "core/window_selector.hpp"
#include "energy/solar.hpp"
#include "lora/airtime.hpp"
#include "oracle/tdma_scheduler.hpp"

int run_program() {
  using namespace blam;
  using namespace blam::bench;

  const int nodes = scaled(200, 60);
  banner("Oracle gap - Algorithm 1 vs the clairvoyant TDMA formulation",
         "the local heuristic should track the oracle's utility within a few percent");

  // Common physics: SF10 attempt cost, one day horizon at 1-minute slots.
  RadioEnergyModel radio;
  TxParams params;
  params.sf = SpreadingFactor::kSF10;
  params.payload_bytes = 14;
  params = params.with_auto_ldro();
  const Energy attempt = tx_energy(params, radio) + radio.rx_power() * Time::from_ms(120);

  SolarTraceConfig solar;
  solar.peak = Power::from_watts(3.0 * attempt.joules() / 60.0);
  solar.seed = 11;
  const SolarTrace trace{solar};

  const int horizon = 24 * 60;  // one day of 1-minute slots
  const Time day_start = Time::from_days(120.0);
  LinearUtility utility;

  struct PopulationRow {
    const char* name;
    double oracle_mu;
    double alg1_mu;
    int oracle_drops;
    int alg1_drops;
  };

  const std::vector<std::pair<const char*, double>> populations{
      {"fresh (w=0.05)", 0.05}, {"degraded (w=1.0)", 1.0}};

  // Each population is one sweep cell with its own (seed, cell-index) RNG
  // fork, so the cells are independent and run under any BLAM_JOBS with
  // bit-identical output.
  SweepRunner runner{sweep_options()};
  const std::vector<PopulationRow> pop_rows =
      runner.map(populations.size(), [&](std::size_t cell) {
    const auto& [name, w_u] = populations[cell];
    Rng rng = Rng{77}.fork(cell);
    // Build the node population: random periods, random panel scales.
    std::vector<OracleNodeSpec> specs;
    std::vector<Harvester> harvesters;
    std::vector<int> periods;
    harvesters.reserve(static_cast<std::size_t>(nodes));
    for (int u = 0; u < nodes; ++u) {
      harvesters.emplace_back(trace, rng.uniform(0.8, 1.2));
      periods.push_back(static_cast<int>(rng.uniform_int(16, 60)));
    }
    for (int u = 0; u < nodes; ++u) {
      OracleNodeSpec spec;
      spec.period_slots = periods[static_cast<std::size_t>(u)];
      spec.tx_cost = attempt;
      spec.initial = attempt * 4;
      spec.storage_cap = attempt * 8;
      spec.w_u = w_u;
      for (int s = 0; s < horizon; ++s) {
        spec.harvest.push_back(harvesters[static_cast<std::size_t>(u)].energy_between(
            day_start + Time::from_minutes(s), day_start + Time::from_minutes(s + 1)));
      }
      specs.push_back(std::move(spec));
    }

    // Oracle schedule.
    OracleConfig oracle_config;
    oracle_config.horizon_slots = horizon;
    oracle_config.omega = 8;
    oracle_config.utility = &utility;
    const OracleResult oracle = TdmaScheduler{}.schedule(oracle_config, specs);
    double oracle_mu = 0.0;
    int oracle_drops = 0;
    int oracle_count = 0;
    for (int u = 0; u < nodes; ++u) {
      if (oracle.node_drops[static_cast<std::size_t>(u)] == 0 ||
          oracle.node_utility[static_cast<std::size_t>(u)] > 0.0) {
        oracle_mu += oracle.node_utility[static_cast<std::size_t>(u)];
        ++oracle_count;
      }
      oracle_drops += oracle.node_drops[static_cast<std::size_t>(u)];
    }
    oracle_mu /= std::max(oracle_count, 1);

    // Algorithm 1, run per node per period on the same inputs (perfect
    // forecasts, no collisions modeled here — the network-level benches
    // cover those; this isolates the scheduling objective).
    WindowSelector selector;
    double alg1_mu = 0.0;
    int alg1_drops = 0;
    int alg1_count = 0;
    for (int u = 0; u < nodes; ++u) {
      const OracleNodeSpec& spec = specs[static_cast<std::size_t>(u)];
      Energy battery = std::min(spec.initial, spec.storage_cap);
      const int tau = spec.period_slots;
      for (int g = 0; g + tau <= horizon; g += tau) {
        std::vector<Energy> harvest(spec.harvest.begin() + g, spec.harvest.begin() + g + tau);
        std::vector<Energy> cost(static_cast<std::size_t>(tau), spec.tx_cost);
        WindowSelectorInput input;
        input.battery = battery;
        input.storage_cap = spec.storage_cap;
        input.w_u = spec.w_u;
        input.w_b = 1.0;
        input.harvest = harvest;
        input.tx_cost = cost;
        input.max_tx = spec.tx_cost * 8;
        input.utility = &utility;
        const WindowSelection sel = selector.select(input);
        if (sel.success) {
          alg1_mu += sel.utility;
          ++alg1_count;
        } else {
          ++alg1_drops;
        }
        // Roll the battery forward through the period.
        for (int i = 0; i < tau; ++i) {
          Energy level = battery + spec.harvest[static_cast<std::size_t>(g + i)];
          if (sel.success && sel.window == i) {
            level = level >= spec.tx_cost ? level - spec.tx_cost : Energy::zero();
          }
          battery = std::min(level, spec.storage_cap);
        }
      }
    }
    alg1_mu /= std::max(alg1_count, 1);

    return PopulationRow{name, oracle_mu, alg1_mu, oracle_drops, alg1_drops};
  });

  // Print and persist from the joining thread, in submission order.
  std::printf("\n%-22s %10s %10s %10s %10s\n", "population", "oracle_mu", "alg1_mu",
              "oracle_drop", "alg1_drop");
  std::vector<std::vector<std::string>> rows;
  for (const PopulationRow& r : pop_rows) {
    std::printf("%-22s %10.4f %10.4f %10d %10d\n", r.name, r.oracle_mu, r.alg1_mu,
                r.oracle_drops, r.alg1_drops);
    rows.push_back({r.name, CsvWriter::cell(r.oracle_mu), CsvWriter::cell(r.alg1_mu),
                    CsvWriter::cell(static_cast<std::int64_t>(r.oracle_drops)),
                    CsvWriter::cell(static_cast<std::int64_t>(r.alg1_drops))});
  }
  write_csv("oracle_gap", {"population", "oracle_utility", "alg1_utility", "oracle_drops",
                           "alg1_drops"},
            rows);

  std::printf("\nthe oracle also enforces the slot-capacity constraint (omega=8) that the\n"
              "asynchronous protocol replaces with collision feedback; identical utility\n"
              "for fresh nodes and a small gap for degraded ones is the expected shape.\n");
  return 0;
}

int main() { return blam::bench::guarded_main("oracle_gap", run_program); }
