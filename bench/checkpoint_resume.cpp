// Crash-tolerant engine bench + CI kill-resume harness.
//
// Default (no arguments): measures the "blamsim v4" checkpoint pipeline on a
// faulted 4-shard deployment — write time, stream size, restore time — then
// kills the run at mid-epoch, resumes a fresh engine from the checkpoint,
// and verifies the resumed run's FINAL checkpoint stream is byte-identical
// to an uninterrupted run's (the stream covers every clock, RNG, pending
// event, ledger and metric, so stream equality is engine equality). Emits
// BENCH_resume.json and exits nonzero on any divergence. BLAM_SHARDS is
// ignored here: the measurement is always on 4 shards.
//
// CI kill-resume legs (shared scenario, outputs under BLAM_OUT_DIR; they
// honour BLAM_SHARDS, so the drill also runs on one slice):
//   --fresh            run start to end, write resume_fleet.csv and
//                      resume_final.state
//   --abort-at-epoch N run with the rolling checkpoint armed
//                      (BLAM_CHECKPOINT_EVERY=1) and std::_Exit(0) right
//                      after the epoch-N boundary checkpoint lands — the
//                      no-destructor exit is the kill -9 stand-in
//   --resume           restore from BLAM_CHECKPOINT_DIR/blamsim.ckpt, run
//                      to the end, write the same two outputs; CI byte-
//                      compares them against the --fresh pair
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "sim/shard_engine.hpp"

namespace {

using namespace blam;
using namespace blam::bench;

/// The acceptance scenario: a decomposable city (every cell its own
/// collision domain) under kitchen-sink fault injection, on 4 shards.
ScenarioConfig resume_scenario() {
  ScenarioConfig c;
  c.policy = PolicyKind::kBlam;
  c.theta = 0.5;
  c.n_nodes = scaled(2000, 48);
  c.n_gateways = scaled(16, 4);
  c.gateway_grid_pitch_m = 12000.0;
  c.cluster_radius_m = 1000.0;
  c.interference_floor_dbm = -143.0;
  c.sf_assignment = SfAssignment::kDistanceBased;
  c.shards = 4;
  c.seed = 42;
  c.label = c.policy_label();
  // Hourly epochs so a short run still crosses many checkpoint boundaries.
  c.dissemination_period = Time::from_hours(1.0);
  c.faults.outage_daily_start = Time::from_hours(9.0);
  c.faults.outage_daily_duration = Time::from_hours(2.0);
  c.faults.outage_random_per_day = 1.0;
  c.faults.ack_loss_good = 0.02;
  c.faults.ack_loss_bad = 0.8;
  c.faults.crash_per_year = 24.0;
  c.faults.report_loss = 0.1;
  c.faults.report_reorder = 0.1;
  c.faults.report_corrupt = 0.05;
  c.faults.drought_start = Time::from_hours(5.0);
  c.faults.drought_duration = Time::from_hours(12.0);
  c.faults.drought_scale = 0.3;
  return c;
}

constexpr int kEpochs = 12;      // 12 h run
constexpr int kKillEpoch = 6;    // kill/resume point (epoch boundary)

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::string checkpoint_text(ShardedNetwork& engine) {
  std::ostringstream out;
  engine.checkpoint(out);
  return out.str();
}

/// BLAM_OUT_DIR-relative path (mirrors write_csv / the bench JSON idiom).
std::string out_path(const std::string& name) {
  namespace fs = std::filesystem;
  fs::path path{name};
  if (const char* dir = std::getenv("BLAM_OUT_DIR"); dir != nullptr && dir[0] != '\0') {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (!ec) path = fs::path{dir} / path;
  }
  return path.string();
}

/// The two byte-compare artifacts: the final checkpoint stream (complete
/// engine state) and a per-node figure-style CSV. The stream is written
/// BEFORE finalize_metrics — finalizing drains the report channel, and both
/// runs must do both steps in the same order.
int write_outputs(ShardedNetwork& engine) {
  const std::string state_path = out_path("resume_final.state");
  std::ofstream state{state_path, std::ios::binary | std::ios::trunc};
  if (!state) {
    std::fprintf(stderr, "error: could not write %s\n", state_path.c_str());
    return 1;
  }
  engine.checkpoint(state);
  state.flush();
  if (!state) {
    std::fprintf(stderr, "error: write failed for %s\n", state_path.c_str());
    return 1;
  }

  engine.finalize_metrics();
  const Metrics& m = engine.metrics();
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < m.node_count(); ++i) {
    const NodeMetrics& n = m.node(i);
    rows.push_back({CsvWriter::cell(static_cast<std::uint64_t>(i)), CsvWriter::cell(n.generated),
                    CsvWriter::cell(n.delivered), CsvWriter::cell(n.tx_attempts),
                    CsvWriter::cell(n.retx), CsvWriter::cell(n.crashes),
                    CsvWriter::cell(n.tx_energy.joules()), CsvWriter::cell(n.degradation),
                    CsvWriter::cell(n.final_soc),
                    CsvWriter::cell(engine.w_for(static_cast<std::uint32_t>(i)))});
  }
  write_csv("resume_fleet",
            {"node", "generated", "delivered", "tx_attempts", "retx", "crashes", "tx_energy_j",
             "degradation", "final_soc", "w_u"},
            rows);
  std::printf("wrote %s and resume_fleet.csv\n", state_path.c_str());
  return 0;
}

int run_fresh() {
  ShardedNetwork engine{resume_scenario()};
  engine.run_until(Time::from_hours(static_cast<double>(kEpochs)));
  return write_outputs(engine);
}

int run_abort(int epoch) {
  // Roll a checkpoint every epoch; die without destructors right after the
  // epoch-N checkpoint lands, like a kill -9 between event batches.
  setenv("BLAM_CHECKPOINT_EVERY", "1", 0);
  ShardedNetwork engine{resume_scenario()};
  engine.run_until(Time::from_hours(static_cast<double>(epoch)));
  std::printf("aborting after epoch %d checkpoint (simulated kill -9)\n", epoch);
  std::fflush(stdout);
  std::_Exit(0);
}

int run_resume() {
  const char* dir = std::getenv("BLAM_CHECKPOINT_DIR");
  const std::string ckpt =
      std::string{dir != nullptr && dir[0] != '\0' ? dir : "."} + "/blamsim.ckpt";
  ShardedNetwork engine{resume_scenario()};
  std::ifstream in{ckpt, std::ios::binary};
  if (!in) {
    std::fprintf(stderr, "error: no checkpoint at %s\n", ckpt.c_str());
    return 1;
  }
  engine.restore(in);
  std::printf("resumed from %s\n", ckpt.c_str());
  engine.run_until(Time::from_hours(static_cast<double>(kEpochs)));
  return write_outputs(engine);
}

int run_bench() {
  banner("Checkpoint/resume overhead - crash-tolerant sharded engine",
         "a run killed at an epoch checkpoint resumes bit-identically to the "
         "uninterrupted run, at a checkpoint cost worth measuring");
  const ScenarioConfig config = resume_scenario();
  const Time mid = Time::from_hours(static_cast<double>(kKillEpoch));
  const Time end = Time::from_hours(static_cast<double>(kEpochs));

  auto t0 = std::chrono::steady_clock::now();
  ShardedNetwork uninterrupted{config};
  uninterrupted.run_until(end);
  const double fresh_wall_s = seconds_since(t0);
  if (uninterrupted.serial()) {
    std::fprintf(stderr, "error: scenario unexpectedly fell back to serial\n");
    return 1;
  }

  ShardedNetwork original{config};
  original.run_until(mid);
  const std::string ckpt_path = out_path("resume_bench.ckpt");
  t0 = std::chrono::steady_clock::now();
  original.checkpoint_to_file(ckpt_path);
  const double checkpoint_write_s = seconds_since(t0);
  const auto checkpoint_bytes =
      static_cast<std::uint64_t>(std::filesystem::file_size(ckpt_path));

  // The "kill": `original` is simply abandoned mid-run.
  ShardedNetwork resumed{config};
  {
    std::ifstream in{ckpt_path, std::ios::binary};
    t0 = std::chrono::steady_clock::now();
    resumed.restore(in);
  }
  const double restore_s = seconds_since(t0);
  t0 = std::chrono::steady_clock::now();
  resumed.run_until(end);
  const double resumed_wall_s = seconds_since(t0);

  const bool bit_identical = checkpoint_text(resumed) == checkpoint_text(uninterrupted);
  if (!bit_identical) {
    std::fprintf(stderr, "error: resumed run diverged from the uninterrupted run\n");
  }
  std::filesystem::remove(ckpt_path);

  std::printf("%d nodes / %d gateways x %d h, 4 shards, kill at epoch %d\n", config.n_nodes,
              config.n_gateways, kEpochs, kKillEpoch);
  std::printf("  fresh run        %8.3f s wall\n", fresh_wall_s);
  std::printf("  checkpoint write %8.3f s  (%llu bytes)\n", checkpoint_write_s,
              static_cast<unsigned long long>(checkpoint_bytes));
  std::printf("  restore          %8.3f s\n", restore_s);
  std::printf("  resumed tail     %8.3f s wall\n", resumed_wall_s);
  std::printf("  bit-identical    %s\n", bit_identical ? "yes" : "NO");

  const std::string json_path = out_path("BENCH_resume.json");
  std::ofstream json{json_path};
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"nodes\": %d,\n"
                "  \"gateways\": %d,\n"
                "  \"shards\": 4,\n"
                "  \"days\": %.3f,\n"
                "  \"epochs\": %d,\n"
                "  \"kill_epoch\": %d,\n"
                "  \"checkpoint_bytes\": %llu,\n"
                "  \"checkpoint_write_s\": %.6f,\n"
                "  \"restore_s\": %.6f,\n"
                "  \"fresh_wall_s\": %.3f,\n"
                "  \"resumed_wall_s\": %.3f,\n"
                "  \"bit_identical\": %s\n"
                "}\n",
                config.n_nodes, config.n_gateways, static_cast<double>(kEpochs) / 24.0, kEpochs,
                kKillEpoch, static_cast<unsigned long long>(checkpoint_bytes),
                checkpoint_write_s, restore_s, fresh_wall_s, resumed_wall_s,
                bit_identical ? "true" : "false");
  json << buf;
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("[json] wrote %s\n", json_path.c_str());
  return bit_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--fresh") == 0) return run_fresh();
  if (argc >= 3 && std::strcmp(argv[1], "--abort-at-epoch") == 0) {
    const int epoch = std::atoi(argv[2]);
    if (epoch < 1 || epoch >= kEpochs) {
      std::fprintf(stderr, "error: --abort-at-epoch wants 1..%d\n", kEpochs - 1);
      return 2;
    }
    return run_abort(epoch);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--resume") == 0) return run_resume();
  if (argc >= 2) {
    std::fprintf(stderr, "usage: %s [--fresh | --abort-at-epoch N | --resume]\n", argv[0]);
    return 2;
  }
  // A stray shard override would bend the fixed 4-shard measurement.
  if (std::getenv("BLAM_SHARDS") != nullptr) {
    std::printf("note: ignoring BLAM_SHARDS for the fixed 4-shard scenario\n");
    unsetenv("BLAM_SHARDS");
  }
  return run_bench();
}
