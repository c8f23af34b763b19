// Fig. 10 — "Deployment map": the paper shows the physical placement of its
// 10-node indoor testbed. The simulation equivalent is the generated
// topology: this binary dumps node and gateway coordinates, per-node link
// loss, assigned SF and sampling period as CSV (plottable as the map), for
// both the testbed layout and the large-scale disk.
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "net/network.hpp"

namespace {

struct LayoutDump {
  std::vector<std::vector<std::string>> rows;
  std::size_t n_nodes{0};
  std::size_t n_gateways{0};
};

// Builds the layout rows only; the CSVs are written by the joining thread
// (CsvWriter instances must not be shared with sweep workers).
LayoutDump dump(const blam::ScenarioConfig& config) {
  using namespace blam;
  Network network{config};
  LayoutDump out;
  for (const auto& gw : network.gateways()) {
    out.rows.push_back({"gateway", CsvWriter::cell(static_cast<std::int64_t>(gw->id())),
                        CsvWriter::cell(gw->position().x_m), CsvWriter::cell(gw->position().y_m),
                        "", "", ""});
  }
  for (std::size_t i = 0; i < network.nodes().size(); ++i) {
    const Node& node = *network.nodes()[i];
    out.rows.push_back({"node", CsvWriter::cell(static_cast<std::uint64_t>(node.id())),
                        CsvWriter::cell(node.position().x_m),
                        CsvWriter::cell(node.position().y_m),
                        CsvWriter::cell(node.min_link_loss_db()), to_string(node.sf()),
                        CsvWriter::cell(node.period().minutes())});
  }
  out.n_nodes = network.nodes().size();
  out.n_gateways = network.gateways().size();
  return out;
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

  const std::vector<std::pair<const char*, ScenarioConfig>> layouts{
      {"fig10_testbed_map", std::move(testbed)}, {"fig10_largescale_map", std::move(large)}};
  SweepRunner runner{sweep_options()};
  const std::vector<LayoutDump> dumps =
      runner.map(layouts.size(), [&](std::size_t i) { return dump(layouts[i].second); });

  for (std::size_t i = 0; i < layouts.size(); ++i) {
    write_csv(layouts[i].first, {"kind", "id", "x_m", "y_m", "min_loss_db", "sf", "period_min"},
              dumps[i].rows);
    std::printf("%s: %zu nodes, %zu gateway(s)\n", layouts[i].first, dumps[i].n_nodes,
                dumps[i].n_gateways);
  }
  return 0;
}

int main() { return blam::bench::guarded_main("fig10_deployment_map", run_program); }
