// Sharded-engine throughput: city-grid deployments (isolated collision
// domains under the audibility floor) run at shard counts 1/2/4/8, with the
// one-slice run as the shards=1 baseline. Emits BENCH_shard.json plus a
// Fig-10-style city map (fig10_city_map.csv) colored by domain and shard.
//
// Host-core note: on a core-starved container, worker threads time-slice
// one core and wall clock cannot show the speedup, so each run also reports
// its CRITICAL PATH — the maximum per-shard busy CPU time (the standard
// conservative-PDES scalability metric). speedup_vs_serial is the serial
// run's busy time divided by the sharded run's critical path; on an
// unloaded S-core host the wall clock converges to the critical path.
//
// Bit-identity is not just asserted in tests: every run fingerprints the
// full per-node metric set (plus the compensated gateway counters and the
// disseminated w_u values) and the process exits nonzero if any shard
// count diverges from the shards=1 run.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/checksum.hpp"
#include "common/csv.hpp"
#include "common/state_codec.hpp"
#include "sim/shard_engine.hpp"

namespace {

using namespace blam;
using namespace blam::bench;

/// Gateways on a 12 km grid, nodes clustered within 1 km of their cell's
/// gateway, no shadowing: the nearest foreign gateway is >= 11 km out
/// (rx <= -145.7 dBm), under the -143 dBm audibility floor, so every cell
/// is an independent collision domain and the decomposition is exact.
ScenarioConfig city_scenario(int nodes, int gateways, std::uint64_t seed) {
  ScenarioConfig c = blam_scenario(nodes, /*theta=*/0.5, seed);
  c.n_gateways = gateways;
  c.gateway_grid_pitch_m = 12000.0;
  c.cluster_radius_m = 1000.0;
  c.interference_floor_dbm = -143.0;
  c.sf_assignment = SfAssignment::kDistanceBased;
  return c;
}

/// Digest of everything the committed figures could consume: every node's
/// metric rows and disseminated w_u, and the (compensated) gateway row, as
/// state-codec bytes. events_executed is deliberately excluded — sharded
/// runs execute extra per-shard dissemination ticks.
std::uint64_t fingerprint(const ShardedNetwork& net) {
  std::ostringstream out;
  StateWriter w{out};
  w.begin_section("fingerprint");
  const Metrics& m = net.metrics();
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    write_node_metrics(w, m.node(i));
    write_node_battery(w, m.node(i));
    w.put_double(net.w_for(static_cast<std::uint32_t>(i)));
  }
  write_gateway_metrics(w, m.gateway());
  w.end_section();
  return fnv1a64(std::move(out).str());
}

struct RunStats {
  int shards{1};
  int effective{1};
  double wall_s{0.0};
  double critical_s{0.0};
  std::uint64_t events{0};
  std::uint64_t digest{0};
};

RunStats run_once(const ScenarioConfig& base, int shards, double days) {
  ScenarioConfig config = base;
  config.shards = shards;
  ShardedNetwork net{config};
  const auto wall0 = std::chrono::steady_clock::now();
  net.run_until(Time::from_days(days));
  RunStats out;
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
  out.critical_s = net.max_shard_busy_seconds();
  net.finalize_metrics();
  out.shards = shards;
  out.effective = net.plan().effective;
  out.events = net.events_executed();
  out.digest = fingerprint(net);
  return out;
}

struct Deployment {
  const char* name;
  int nodes;
  int gateways;
  double days;
};

void write_city_map() {
  // Fixed-size map (independent of BLAM_FULL) so the committed CSV is
  // byte-stable across laptop and paper-scale runs.
  const ScenarioConfig c = city_scenario(2000, 16, /*seed=*/42);
  const Rng root{c.seed, /*stream=*/0};
  const DeploymentPlan deployment = plan_deployment(c, root);
  const ShardPlan plan = plan_shards(c, deployment, /*requested=*/4);

  std::vector<std::vector<std::string>> rows;
  for (std::size_t g = 0; g < deployment.gateway_positions.size(); ++g) {
    rows.push_back({"gateway", CsvWriter::cell(static_cast<std::uint64_t>(g)),
                    CsvWriter::cell(deployment.gateway_positions[g].x_m),
                    CsvWriter::cell(deployment.gateway_positions[g].y_m), "", "", "",
                    CsvWriter::cell(static_cast<std::int64_t>(plan.domain_of_gateway[g])),
                    CsvWriter::cell(static_cast<std::int64_t>(plan.shard_of_gateway[g]))});
  }
  for (std::size_t i = 0; i < deployment.nodes.size(); ++i) {
    const NodePlan& node = deployment.nodes[i];
    // A clustered node's domain is its strongest gateway's domain.
    const std::span<const double> losses = deployment.losses_db(i);
    const auto best = static_cast<std::size_t>(std::ranges::min_element(losses) - losses.begin());
    rows.push_back({"node", CsvWriter::cell(static_cast<std::uint64_t>(i)),
                    CsvWriter::cell(node.position.x_m), CsvWriter::cell(node.position.y_m),
                    CsvWriter::cell(node.best_loss_db), to_string(node.sf),
                    CsvWriter::cell(node.period.minutes()),
                    CsvWriter::cell(static_cast<std::int64_t>(plan.domain_of_gateway[best])),
                    CsvWriter::cell(static_cast<std::int64_t>(plan.shard_of_node[i]))});
  }
  write_csv("fig10_city_map",
            {"kind", "id", "x_m", "y_m", "min_loss_db", "sf", "period_min", "domain", "shard"},
            rows);
}

}  // namespace

int run_program() {
  // The JSON's shard axis is fixed; a stray BLAM_SHARDS override would
  // silently bend every run onto one count.
  if (std::getenv("BLAM_SHARDS") != nullptr) {
    std::printf("note: ignoring BLAM_SHARDS for the fixed shard-count axis\n");
    unsetenv("BLAM_SHARDS");
  }
  banner("Sharded-engine throughput - conservative time-windowed parallel runs",
         "collision-domain shards reproduce the serial engine bit for bit while "
         "spreading the event load across workers");

  std::vector<Deployment> deployments{{"smoke", 2000, 16, 2.0}};
  if (full_scale()) {
    deployments.push_back({"city100k", 100000, 64, 2.0});
    deployments.push_back({"city1m", 1000000, 16, 1.0});
  } else {
    std::printf("scale: laptop smoke deployment only (BLAM_FULL=1 adds 100k and 1M nodes)\n");
  }
  const std::vector<int> shard_counts{1, 2, 4, 8};

  bool bit_identical = true;
  std::string json_deployments;
  for (const Deployment& dep : deployments) {
    std::printf("\n%s: %d nodes / %d gateways x %.1f days\n", dep.name, dep.nodes, dep.gateways,
                dep.days);
    std::printf("%8s %10s %10s %14s %16s %12s\n", "shards", "wall_s", "crit_s", "events",
                "ev/s(crit)", "speedup");
    const ScenarioConfig base = city_scenario(dep.nodes, dep.gateways, /*seed=*/42);
    double serial_critical = 0.0;
    std::uint64_t serial_digest = 0;
    std::string json_runs;
    for (const int shards : shard_counts) {
      const RunStats r = run_once(base, shards, dep.days);
      if (shards == 1) {
        serial_critical = r.critical_s;
        serial_digest = r.digest;
      } else if (r.digest != serial_digest) {
        bit_identical = false;
        std::fprintf(stderr, "error: %s at %d shards diverged from the serial engine\n",
                     dep.name, shards);
      }
      const double speedup = r.critical_s > 0.0 ? serial_critical / r.critical_s : 0.0;
      const double evps_wall = r.wall_s > 0.0 ? static_cast<double>(r.events) / r.wall_s : 0.0;
      const double evps_crit =
          r.critical_s > 0.0 ? static_cast<double>(r.events) / r.critical_s : 0.0;
      std::printf("%8d %10.2f %10.2f %14llu %16.0f %11.2fx\n", shards, r.wall_s, r.critical_s,
                  static_cast<unsigned long long>(r.events), evps_crit, speedup);
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "        {\"shards\": %d, \"effective_shards\": %d, \"wall_s\": %.3f, "
                    "\"critical_path_s\": %.3f, \"events_executed\": %llu, "
                    "\"events_per_s_wall\": %.0f, \"events_per_s_critical_path\": %.0f, "
                    "\"speedup_vs_serial\": %.3f}",
                    r.shards, r.effective, r.wall_s, r.critical_s,
                    static_cast<unsigned long long>(r.events), evps_wall, evps_crit, speedup);
      if (!json_runs.empty()) json_runs += ",\n";
      json_runs += buf;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\n"
                  "      \"name\": \"%s\",\n"
                  "      \"nodes\": %d,\n"
                  "      \"gateways\": %d,\n"
                  "      \"days\": %.1f,\n"
                  "      \"runs\": [\n",
                  dep.name, dep.nodes, dep.gateways, dep.days);
    if (!json_deployments.empty()) json_deployments += ",\n";
    json_deployments += buf;
    json_deployments += json_runs;
    json_deployments += "\n      ]\n    }";
  }

  write_city_map();

  const std::string json_path = out_path("BENCH_shard.json");
  std::ofstream json{json_path};
  json << "{\n"
       << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"metric_note\": \"critical_path_s is the max per-shard busy CPU time "
          "(serial: the run's own CPU time); speedup_vs_serial is computed on that "
          "basis because core-starved hosts time-slice the workers\",\n"
       << "  \"bit_identical\": " << (bit_identical ? "true" : "false") << ",\n"
       << "  \"deployments\": [\n"
       << json_deployments << "\n  ]\n}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\n[json] wrote %s\n", json_path.c_str());
  return bit_identical ? 0 : 1;
}

int main() { return blam::bench::guarded_main("shard_throughput", run_program); }
