// Ablations for the extension features (DESIGN.md inventory additions):
//   (1) hybrid storage: supercap buffer on/off -> battery cycle aging;
//   (2) server-side ADR on/off -> TX energy and SF mix (distance-based SFs);
//   (3) gateway diversity: 1 vs 3 gateways -> PRR and SF mix;
//   (4) thermal: insulated 25 C vs outdoor climates -> degradation.
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "net/network.hpp"

namespace {

using namespace blam;
using namespace blam::bench;

double total_cycle_linear(const ExperimentResult& r) {
  double sum = 0.0;
  for (const NodeMetrics& m : r.nodes) sum += m.cycle_linear;
  return sum;
}

}  // namespace

int run_program() {
  const int nodes = scaled(200, 80);
  const double days = scaled(180.0, 45.0);
  banner("Ablations - supercap / ADR / multi-gateway / thermal extensions",
         "each extension moves exactly the metric it targets");

  const std::uint64_t seed = 42;
  const Time duration = Time::from_days(days);
  std::vector<std::vector<std::string>> rows;

  // All five ablations flattened into one sweep grid; each block's scenarios
  // stay adjacent so the result indices below read like the old per-block
  // runs. Blocks (1,2,4,5) share a trace within the block; block (3) lets
  // each cell synthesize its own weather, as before.
  std::vector<ScenarioCell> cells;

  // (1) Supercap: H-50 with and without a 6-transmission buffer.
  {
    ScenarioConfig plain = blam_scenario(nodes, 0.5, seed);
    ScenarioConfig hybrid = plain;
    hybrid.supercap_tx_buffer = 6.0;
    const auto trace = build_shared_trace(plain);
    cells.push_back({std::move(plain), trace});
    cells.push_back({std::move(hybrid), trace});
  }

  // (2) ADR: distance-based SFs in a compact cell.
  {
    ScenarioConfig off = lorawan_scenario(nodes, seed);
    off.radius_m = 2500.0;
    off.sf_assignment = SfAssignment::kDistanceBased;
    off.path_loss.shadowing_sigma_db = 6.0;
    ScenarioConfig on = off;
    on.adr_enabled = true;
    const auto trace = build_shared_trace(off);
    cells.push_back({std::move(off), trace});
    cells.push_back({std::move(on), trace});
  }

  // (3) Gateway diversity in a sprawling cell.
  {
    ScenarioConfig one = lorawan_scenario(nodes, seed);
    one.radius_m = 7000.0;
    one.sf_assignment = SfAssignment::kDistanceBased;
    one.path_loss.shadowing_sigma_db = 6.0;
    ScenarioConfig three = one;
    three.n_gateways = 3;
    cells.push_back({std::move(one), nullptr});
    cells.push_back({std::move(three), nullptr});
  }

  // (4) Thermal: insulated vs temperate vs hot climate (H-50).
  {
    ScenarioConfig insulated = blam_scenario(nodes, 0.5, seed);
    ScenarioConfig temperate = insulated;
    temperate.thermal.insulated = false;
    temperate.thermal.mean_c = 15.0;
    ScenarioConfig hot = insulated;
    hot.thermal.insulated = false;
    hot.thermal.mean_c = 32.0;
    const auto trace = build_shared_trace(insulated);
    cells.push_back({std::move(insulated), trace});
    cells.push_back({std::move(temperate), trace});
    cells.push_back({std::move(hot), trace});
  }

  // (5) Adaptive theta: the closed-loop network manager vs fixed caps.
  {
    ScenarioConfig fixed50 = blam_scenario(nodes, 0.5, seed);
    ScenarioConfig fixed30 = blam_scenario(nodes, 0.3, seed);
    ScenarioConfig adaptive = blam_scenario(nodes, 0.5, seed);
    adaptive.adaptive_theta = true;
    const auto trace = build_shared_trace(fixed50);
    cells.push_back({std::move(fixed50), trace});
    cells.push_back({std::move(fixed30), trace});
    cells.push_back({std::move(adaptive), trace});
  }

  const std::vector<ExperimentResult> results = run_scenarios(cells, duration, campaign_options());

  // (1) Supercap.
  {
    const ExperimentResult& a = results[0];
    const ExperimentResult& b = results[1];
    const double cyc_a = total_cycle_linear(a);
    const double cyc_b = total_cycle_linear(b);
    std::printf("\n(1) hybrid storage (H-50):\n");
    std::printf("    battery-only cycle aging %.3e | +supercap %.3e (%+.1f%%), PRR %.4f -> %.4f\n",
                cyc_a, cyc_b, 100.0 * (cyc_b / cyc_a - 1.0), a.summary.mean_prr,
                b.summary.mean_prr);
    rows.push_back({"supercap", CsvWriter::cell(cyc_a), CsvWriter::cell(cyc_b),
                    CsvWriter::cell(a.summary.mean_prr), CsvWriter::cell(b.summary.mean_prr)});
  }

  // (2) ADR.
  {
    const ExperimentResult& a = results[2];
    const ExperimentResult& b = results[3];
    std::printf("\n(2) ADR (LoRaWAN, distance-based SF, 2.5 km):\n");
    std::printf("    TX energy %.1f kJ -> %.1f kJ (%+.1f%%), PRR %.4f -> %.4f\n",
                a.summary.total_tx_energy.joules() / 1e3, b.summary.total_tx_energy.joules() / 1e3,
                100.0 * (b.summary.total_tx_energy / a.summary.total_tx_energy - 1.0),
                a.summary.mean_prr, b.summary.mean_prr);
    rows.push_back({"adr", CsvWriter::cell(a.summary.total_tx_energy.joules()),
                    CsvWriter::cell(b.summary.total_tx_energy.joules()),
                    CsvWriter::cell(a.summary.mean_prr), CsvWriter::cell(b.summary.mean_prr)});
  }

  // (3) Gateway diversity.
  {
    const ExperimentResult& a = results[4];
    const ExperimentResult& b = results[5];
    std::printf("\n(3) gateways 1 -> 3 (7 km cell):\n");
    std::printf("    PRR %.4f -> %.4f, min PRR %.4f -> %.4f, TX energy %+.1f%%\n",
                a.summary.mean_prr, b.summary.mean_prr, a.summary.min_prr, b.summary.min_prr,
                100.0 * (b.summary.total_tx_energy / a.summary.total_tx_energy - 1.0));
    rows.push_back({"gateways", CsvWriter::cell(a.summary.mean_prr),
                    CsvWriter::cell(b.summary.mean_prr), CsvWriter::cell(a.summary.min_prr),
                    CsvWriter::cell(b.summary.min_prr)});
  }

  // (4) Thermal.
  {
    const ExperimentResult& a = results[6];
    const ExperimentResult& b = results[7];
    const ExperimentResult& c = results[8];
    std::printf("\n(4) thermal (H-50): degradation insulated-25C %.6f | outdoor-15C %.6f | "
                "outdoor-32C %.6f\n",
                a.summary.degradation_box.mean, b.summary.degradation_box.mean,
                c.summary.degradation_box.mean);
    rows.push_back({"thermal", CsvWriter::cell(a.summary.degradation_box.mean),
                    CsvWriter::cell(b.summary.degradation_box.mean),
                    CsvWriter::cell(c.summary.degradation_box.mean), ""});
  }

  // (5) Adaptive theta.
  {
    const ExperimentResult& a = results[9];
    const ExperimentResult& b = results[10];
    const ExperimentResult& c = results[11];
    std::printf("\n(5) adaptive theta (H-50 start):\n");
    std::printf("    degradation fixed-0.5 %.6f | fixed-0.3 %.6f | adaptive %.6f; "
                "PRR %.4f / %.4f / %.4f\n",
                a.summary.degradation_box.mean, b.summary.degradation_box.mean,
                c.summary.degradation_box.mean, a.summary.mean_prr, b.summary.mean_prr,
                c.summary.mean_prr);
    rows.push_back({"adaptive_theta", CsvWriter::cell(a.summary.degradation_box.mean),
                    CsvWriter::cell(b.summary.degradation_box.mean),
                    CsvWriter::cell(c.summary.degradation_box.mean),
                    CsvWriter::cell(c.summary.mean_prr)});
  }

  write_csv("ablation_extensions", {"ablation", "a", "b", "c", "d"}, rows);
  return 0;
}

int main() { return blam::bench::guarded_main("ablation_extensions", run_program); }
