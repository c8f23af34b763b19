// End-to-end single-engine throughput: one Fig-10-shaped large-scale
// scenario (distance-based SFs on the 5 km disk, shadowing, H-50 protocol)
// run serially for a multi-day horizon, reporting simulated events/sec and
// wall-clock seconds. This measures the per-cell hot path itself — the
// sweep engine (BENCH_sweep.json) measures how cells scale across cores,
// and BENCH_shard.json measures the sharded engine against this serial
// baseline. BENCH_hotpath.json is written next to BENCH_sweep.json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "net/network.hpp"

namespace {

using namespace blam;
using namespace blam::bench;

struct RunResult {
  std::uint64_t events{0};
  double wall_s{0.0};
  std::uint64_t delivered{0};
  std::uint64_t generated{0};
};

RunResult run_once(const ScenarioConfig& config, Time duration) {
  Network network{config};
  const auto start = std::chrono::steady_clock::now();
  network.run_until(duration);
  RunResult out;
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  out.events = network.simulator().events_executed();
  for (std::size_t i = 0; i < network.metrics().node_count(); ++i) {
    out.generated += network.metrics().node(i).generated;
    out.delivered += network.metrics().node(i).delivered;
  }
  return out;
}

}  // namespace

int run_program() {
  const int nodes = scaled(4000, 300);
  const double days = scaled(365.0, 60.0);
  banner("Hot-path throughput - large-scale single-run engine speed",
         "Fig. 10 scale study feasibility: one engine, millions of events, zero "
         "allocations in the steady state");

  ScenarioConfig config = blam_scenario(nodes, /*theta=*/0.5, /*seed=*/42);
  config.sf_assignment = SfAssignment::kDistanceBased;
  config.path_loss.shadowing_sigma_db = 6.0;
  const Time duration = Time::from_days(days);

  std::printf("scenario: %d nodes x %.0f days, H-50, distance-based SF, serial engine\n",
              nodes, days);

  const RunResult r = run_once(config, duration);
  const double events_per_s = r.wall_s > 0.0 ? static_cast<double>(r.events) / r.wall_s : 0.0;
  std::printf("\n%-22s %12llu\n", "events executed", static_cast<unsigned long long>(r.events));
  std::printf("%-22s %12llu\n", "packets generated",
              static_cast<unsigned long long>(r.generated));
  std::printf("%-22s %12llu\n", "packets delivered",
              static_cast<unsigned long long>(r.delivered));
  std::printf("%-22s %12.2f\n", "wall seconds", r.wall_s);
  std::printf("%-22s %12.0f\n", "events/sec", events_per_s);

  const std::string json_path = out_path("BENCH_hotpath.json");
  std::ofstream json{json_path};
  char buf[768];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"nodes\": %d,\n"
                "  \"days\": %.1f,\n"
                "  \"policy\": \"H-50\",\n"
                "  \"events_executed\": %llu,\n"
                "  \"packets_generated\": %llu,\n"
                "  \"packets_delivered\": %llu,\n"
                "  \"wall_s\": %.3f,\n"
                "  \"events_per_s\": %.0f\n"
                "}\n",
                nodes, days, static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.generated),
                static_cast<unsigned long long>(r.delivered), r.wall_s, events_per_s);
  json << buf;
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("[json] wrote %s\n", json_path.c_str());
  return 0;
}

int main() { return blam::bench::guarded_main("large_scale_throughput", run_program); }
