// Sweep-engine throughput: runs a laptop-scale protocol x seed grid once
// serially (BLAM_JOBS=1 path) and once with the configured worker count,
// verifies the aggregated results are bit-identical, and reports wall time,
// cells/sec and speedup — human-readable on stdout and machine-readable in
// BENCH_sweep.json (consumed by the CI bench-smoke job to track the perf
// trajectory).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/checksum.hpp"

namespace {

using namespace blam;
using namespace blam::bench;

/// FNV-1a over every result's lossless codec bytes, so "bit-identical"
/// means every figure CSV would match too.
std::uint64_t fingerprint(const std::vector<ExperimentResult>& results) {
  std::uint64_t hash = kFnv1a64Basis;
  for (const ExperimentResult& r : results) hash = fnv1a64(serialize_experiment_result(r), hash);
  return hash;
}

double run_grid(const std::vector<ScenarioCell>& cells, Time duration, int jobs,
                std::uint64_t* fp_out) {
  CampaignOptions options;
  options.sweep.jobs = jobs;
  options.sweep.progress = true;
  const auto start = std::chrono::steady_clock::now();
  const std::vector<ExperimentResult> results = run_scenarios(cells, duration, options);
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                          .count();
  *fp_out = fingerprint(results);
  return wall;
}

}  // namespace

int run_program() {
  const int nodes = scaled(200, 60);
  const double days = scaled(180.0, 45.0);
  banner("Sweep throughput - parallel scenario grid vs the serial path",
         "same grid, same bits, BLAM_JOBS x fewer wall seconds");

  // Protocol x seed grid: 4 protocols x 3 seeds = 12 independent cells,
  // every (protocol, seed) pair sharing that seed's weather like the figure
  // binaries do.
  const Time duration = Time::from_days(days);
  std::vector<ScenarioCell> cells;
  for (std::uint64_t seed : {1, 2, 3}) {
    const auto trace = build_shared_trace(lorawan_scenario(nodes, seed));
    cells.push_back({lorawan_scenario(nodes, seed), trace});
    for (double theta : {0.05, 0.5, 1.0}) {
      cells.push_back({blam_scenario(nodes, theta, seed), trace});
    }
  }

  const int jobs = resolve_jobs();
  std::printf("grid: %zu cells (%d nodes x %.0f days), serial then %d worker(s)\n",
              cells.size(), nodes, days, jobs);

  std::uint64_t fp_serial = 0;
  std::uint64_t fp_parallel = 0;
  const double serial_s = run_grid(cells, duration, /*jobs=*/1, &fp_serial);
  const double parallel_s = run_grid(cells, duration, jobs, &fp_parallel);
  const bool identical = fp_serial == fp_parallel;
  const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  const double n_cells = static_cast<double>(cells.size());

  std::printf("\n%-10s %10s %12s\n", "path", "wall_s", "cells/s");
  std::printf("%-10s %10.2f %12.2f\n", "serial", serial_s, n_cells / serial_s);
  std::printf("%-10s %10.2f %12.2f\n", "parallel", parallel_s, n_cells / parallel_s);
  std::printf("speedup: %.2fx at %d worker(s); results bit-identical: %s\n", speedup, jobs,
              identical ? "YES" : "NO");

  const std::string json_path = out_path("BENCH_sweep.json");
  std::ofstream json{json_path};
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"grid_cells\": %zu,\n"
                "  \"nodes\": %d,\n"
                "  \"days\": %.1f,\n"
                "  \"jobs\": %d,\n"
                "  \"serial_wall_s\": %.3f,\n"
                "  \"parallel_wall_s\": %.3f,\n"
                "  \"serial_cells_per_s\": %.3f,\n"
                "  \"parallel_cells_per_s\": %.3f,\n"
                "  \"speedup\": %.3f,\n"
                "  \"bit_identical\": %s\n"
                "}\n",
                cells.size(), nodes, days, jobs, serial_s, parallel_s, n_cells / serial_s,
                n_cells / parallel_s, speedup, identical ? "true" : "false");
  json << buf;
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("[json] wrote %s\n", json_path.c_str());

  if (!identical) {
    std::fprintf(stderr, "error: parallel grid diverged from the serial path\n");
    return 1;
  }
  return 0;
}

int main() { return blam::bench::guarded_main("sweep_throughput", run_program); }
