// Fig. 10 — "Deployment map": the paper shows the physical placement of its
// 10-node indoor testbed. The simulation equivalent is the generated
// topology: this binary dumps node and gateway coordinates, per-node link
// loss, assigned SF and sampling period as CSV (plottable as the map), for
// both the testbed layout and the large-scale disk.
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "net/deployment_plan.hpp"

namespace {

/// The map of one planned deployment: no engine is built to print it.
std::vector<std::vector<std::string>> map_rows(const blam::ScenarioConfig& config) {
  using namespace blam;
  const DeploymentPlan plan = plan_deployment(config, Rng{config.seed, salt::kRootStream});
  std::vector<std::vector<std::string>> rows;
  for (std::size_t g = 0; g < plan.gateway_positions.size(); ++g) {
    const Position& at = plan.gateway_positions[g];
    rows.push_back({"gateway", CsvWriter::cell(static_cast<std::int64_t>(g)),
                    CsvWriter::cell(at.x_m), CsvWriter::cell(at.y_m), "", "", ""});
  }
  for (std::size_t id = 0; id < plan.nodes.size(); ++id) {
    const NodePlan& node = plan.nodes[id];
    rows.push_back({"node", CsvWriter::cell(static_cast<std::uint64_t>(id)),
                    CsvWriter::cell(node.position.x_m), CsvWriter::cell(node.position.y_m),
                    CsvWriter::cell(node.best_loss_db), to_string(node.sf),
                    CsvWriter::cell(node.period.minutes())});
  }
  return rows;
}

}  // namespace

int run_program() {
  using namespace blam;
  using namespace blam::bench;
  banner("Fig. 10 - deployment layouts (testbed + large-scale)",
         "the paper's figure is the physical lab map; we dump the simulated layouts");

  // Testbed: 10 nodes in a 50 m lab.
  ScenarioConfig testbed = lorawan_scenario(10, 7);
  testbed.radius_m = 50.0;
  testbed.min_period = Time::from_minutes(10.0);
  testbed.max_period = Time::from_minutes(10.0);

  // Large-scale: the 5 km disk with distance-based SFs.
  ScenarioConfig large = lorawan_scenario(scaled(500, 100), 42);
  large.sf_assignment = SfAssignment::kDistanceBased;
  large.path_loss.shadowing_sigma_db = 6.0;

  for (const auto& [name, config] : {std::pair{"fig10_testbed_map", testbed},
                                     std::pair{"fig10_largescale_map", large}}) {
    write_csv(name, {"kind", "id", "x_m", "y_m", "min_loss_db", "sf", "period_min"},
              map_rows(config));
    std::printf("%s: %d nodes, %d gateway(s)\n", name, config.n_nodes, config.n_gateways);
  }
  return 0;
}

int main() { return blam::bench::guarded_main("fig10_deployment_map", run_program); }
