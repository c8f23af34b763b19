// Crash-tolerant engine: "blamsim v4" checkpoint round-trips (serial and
// sharded, with fault injection), the rolling checkpoint file knobs, the
// epoch-barrier watchdog, and the wedge kill chain. Test names carry
// "ShardEngine" so the CI tsan leg's ctest regex selects this file too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "common/state_codec.hpp"
#include "env_guard.hpp"
#include "sim/campaign.hpp"
#include "sim/checkpoint.hpp"
#include "sim/shard_engine.hpp"
#include "state_stream_edit.hpp"

namespace blam {
namespace {

namespace fs = std::filesystem;

// Unique per-test scratch path, removed on destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& stem)
      : path_{(fs::temp_directory_path() / (stem + "." + std::to_string(::getpid()) + ".tmp"))
                  .string()} {
    fs::remove(path_);
  }
  ~ScratchFile() { fs::remove(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Same decomposable city layout as test_shard_engine.cpp: every cell its
/// own collision domain, so `shards` of them genuinely run in parallel.
ScenarioConfig city(int nodes, int gateways, int shards, std::uint64_t seed = 21) {
  ScenarioConfig c;
  c.policy = PolicyKind::kBlam;
  c.theta = 0.5;
  c.n_nodes = nodes;
  c.n_gateways = gateways;
  c.gateway_grid_pitch_m = 12000.0;
  c.cluster_radius_m = 1000.0;
  c.interference_floor_dbm = -143.0;
  c.sf_assignment = SfAssignment::kDistanceBased;
  c.shards = shards;
  c.seed = seed;
  c.label = c.policy_label();
  return c;
}

/// Kitchen-sink fault injection (mirrors the sharded-identity test): the
/// checkpoint must carry every fault stream's mid-run state.
void add_faults(ScenarioConfig& c) {
  c.faults.outage_daily_start = Time::from_hours(9.0);
  c.faults.outage_daily_duration = Time::from_hours(2.0);
  c.faults.outage_random_per_day = 1.0;
  c.faults.ack_loss_good = 0.02;
  c.faults.ack_loss_bad = 0.8;
  c.faults.crash_per_year = 24.0;
  c.faults.report_loss = 0.1;
  c.faults.report_reorder = 0.1;
  c.faults.report_corrupt = 0.05;
  c.faults.drought_start = Time::from_days(0.5);
  c.faults.drought_duration = Time::from_days(1.0);
  c.faults.drought_scale = 0.3;
}

/// The gold bit-identity check: a checkpoint stream covers EVERY piece of
/// engine state (clocks, RNG streams, pending events, ledgers, metrics), so
/// two engines whose streams match byte for byte are indistinguishable.
std::string checkpoint_text(ShardedNetwork& engine) {
  std::ostringstream out;
  engine.checkpoint(out);
  return out.str();
}

TEST(ShardEngineCheckpoint, SerialRoundTripBitIdentical) {
  // shards=1 is one whole-fleet slice; the checkpoint must capture it and
  // resume it bit-exactly.
  const ScenarioConfig c = city(16, 4, 1);
  const Time mid = Time::from_days(0.7);
  const Time end = Time::from_days(2.0);

  ShardedNetwork uninterrupted{c};
  ASSERT_TRUE(uninterrupted.serial());
  uninterrupted.run_until(end);

  ShardedNetwork original{c};
  original.run_until(mid);
  std::stringstream stream;
  original.checkpoint(stream);

  ShardedNetwork resumed{c};
  resumed.restore(stream);
  resumed.run_until(end);

  EXPECT_EQ(checkpoint_text(resumed), checkpoint_text(uninterrupted));
  EXPECT_EQ(resumed.max_degradation(), uninterrupted.max_degradation());

  uninterrupted.finalize_metrics();
  resumed.finalize_metrics();
  const NetworkSummary a = uninterrupted.metrics().summarize();
  const NetworkSummary b = resumed.metrics().summarize();
  EXPECT_EQ(a.mean_prr, b.mean_prr);
  EXPECT_EQ(a.mean_utility, b.mean_utility);
  EXPECT_EQ(a.max_degradation, b.max_degradation);
  ASSERT_GT(a.mean_prr, 0.0);
}

TEST(ShardEngineCheckpoint, AdrRoundTripBitIdentical) {
  // ADR runs used to refuse checkpointing; the per-node SNR windows are now
  // part of the engine stream (sorted by node id, so the bytes are
  // stable), and an ADR-enabled run must resume bit-exactly.
  ScenarioConfig c = city(16, 4, 1);
  c.adr_enabled = true;
  const Time mid = Time::from_days(0.7);
  const Time end = Time::from_days(2.0);

  ShardedNetwork uninterrupted{c};
  uninterrupted.run_until(end);

  ShardedNetwork original{c};
  original.run_until(mid);
  std::stringstream stream;
  original.checkpoint(stream);

  ShardedNetwork resumed{c};
  resumed.restore(stream);
  resumed.run_until(end);

  EXPECT_EQ(checkpoint_text(resumed), checkpoint_text(uninterrupted));
  EXPECT_EQ(resumed.max_degradation(), uninterrupted.max_degradation());
}

TEST(ShardEngineCheckpoint, AdrFourShardRoundTripBitIdentical) {
  // ADR splits like any other run: each slice's server carries the SNR
  // windows of its own nodes, and the four slices resume bit-exactly.
  ScenarioConfig c = city(48, 4, 4);
  c.adr_enabled = true;
  const Time mid = Time::from_days(0.7);
  const Time end = Time::from_days(2.0);

  ShardedNetwork uninterrupted{c};
  ASSERT_FALSE(uninterrupted.serial());
  ASSERT_EQ(uninterrupted.plan().effective, 4);
  uninterrupted.run_until(end);

  ShardedNetwork original{c};
  original.run_until(mid);
  std::stringstream stream;
  original.checkpoint(stream);

  ShardedNetwork resumed{c};
  resumed.restore(stream);
  resumed.run_until(end);

  EXPECT_EQ(checkpoint_text(resumed), checkpoint_text(uninterrupted));
  EXPECT_EQ(resumed.max_degradation(), uninterrupted.max_degradation());
  for (std::uint32_t id = 0; id < 48; ++id) {
    EXPECT_EQ(resumed.w_for(id), uninterrupted.w_for(id)) << "node " << id;
  }
}

TEST(ShardEngineCheckpoint, TxPowerAboveDeviceMaximumRefusedByName) {
  // Audible-gateway lists are built at kDeviceTxPowerDbm, ADR's ceiling; a
  // node restored louder than that would reach gateways its list leaves
  // out, so the restore names the forged power instead.
  ScenarioConfig c = city(16, 4, 1);
  c.adr_enabled = true;
  ShardedNetwork original{c};
  original.run_until(Time::from_days(0.5));
  const auto power_line = [](double dbm) {
    std::ostringstream out;
    StateWriter w{out};
    w.begin_section("power");
    w.put_double(dbm);
    w.end_section();
    return stream_edit::split_lines(out.str()).at(1);
  };
  std::vector<std::string> lines = stream_edit::split_lines(checkpoint_text(original));
  const auto node = std::find(lines.begin(), lines.end(), "section node\n");
  ASSERT_NE(node, lines.end());
  // id, SF, then the TX power (ADR may have stepped it down already).
  ASSERT_TRUE((node + 3)->starts_with("d ")) << *(node + 3);
  *(node + 3) = power_line(kDeviceTxPowerDbm + 6.0);

  ShardedNetwork resumed{c};
  std::istringstream in{stream_edit::reseal(stream_edit::join_lines(lines))};
  try {
    resumed.restore(in);
    FAIL() << "a 20 dBm node restored";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("TX power above"), std::string::npos) << e.what();
  }
}

TEST(ShardEngineCheckpoint, FaultedFourShardRoundTripBitIdentical) {
  // The acceptance scenario: four shards, full fault injection, checkpoint
  // mid-epoch, kill the original, resume a fresh engine — every shard's
  // final state matches the uninterrupted run byte for byte.
  ScenarioConfig c = city(48, 4, 4);
  add_faults(c);
  const Time mid = Time::from_days(0.7);
  const Time end = Time::from_days(2.0);

  ShardedNetwork uninterrupted{c};
  ASSERT_FALSE(uninterrupted.serial());
  ASSERT_EQ(uninterrupted.plan().effective, 4);
  uninterrupted.run_until(end);

  ShardedNetwork original{c};
  original.run_until(mid);
  std::stringstream stream;
  original.checkpoint(stream);

  ShardedNetwork resumed{c};
  resumed.restore(stream);
  resumed.run_until(end);

  EXPECT_EQ(checkpoint_text(resumed), checkpoint_text(uninterrupted));
  EXPECT_EQ(resumed.max_degradation(), uninterrupted.max_degradation());
  for (std::uint32_t id = 0; id < 48; ++id) {
    EXPECT_EQ(resumed.w_for(id), uninterrupted.w_for(id)) << "node " << id;
  }

  uninterrupted.finalize_metrics();
  resumed.finalize_metrics();
  const NetworkSummary a = uninterrupted.metrics().summarize();
  const NetworkSummary b = resumed.metrics().summarize();
  EXPECT_EQ(a.mean_prr, b.mean_prr);
  EXPECT_EQ(a.total_outage_s, b.total_outage_s);
  EXPECT_GT(a.total_outage_s, 0.0);
}

TEST(ShardEngineCheckpoint, ParallelStreamEqualsSerialSliceWrites) {
  // checkpoint() serializes slices concurrently; the stream must be the
  // meta section followed by every slice written one after another through
  // a single StateWriter.
  ScenarioConfig c = city(48, 4, 4);
  add_faults(c);
  ShardedNetwork engine{c};
  ASSERT_EQ(engine.plan().effective, 4);
  engine.run_until(Time::from_days(0.7));
  const std::string parallel = checkpoint_text(engine);

  const std::size_t meta_end = parallel.find("\nsection ", parallel.find("section meta"));
  ASSERT_NE(meta_end, std::string::npos);
  std::ostringstream serial;
  serial << parallel.substr(0, meta_end + 1);
  StateWriter w{serial};
  for (int s = 0; s < engine.plan().effective; ++s) engine.slice(s).checkpoint_state(w);
  EXPECT_EQ(serial.str().size(), parallel.size());
  EXPECT_TRUE(serial.str() == parallel);
}

TEST(ShardEngineCheckpoint, AuditedFourShardRoundTripBitIdentical) {
  // Each audited slice writes its auditor's ledger, counts and recorded
  // violations as an `audit` section after its other sections; the resumed
  // run's final stream, audit sections included, is the uninterrupted one.
  const EnvGuard audit{"BLAM_AUDIT", "1"};
  ScenarioConfig c = city(48, 4, 4);
  add_faults(c);
  const Time mid = Time::from_days(0.7);
  const Time end = Time::from_days(2.0);

  ShardedNetwork uninterrupted{c};
  ASSERT_EQ(uninterrupted.plan().effective, 4);
  uninterrupted.run_until(end);
  const std::string expected = checkpoint_text(uninterrupted);
  std::size_t audit_sections = 0;
  for (std::size_t at = expected.find("\nsection audit\n"); at != std::string::npos;
       at = expected.find("\nsection audit\n", at + 1)) {
    ++audit_sections;
  }
  EXPECT_EQ(audit_sections, 4u);

  ShardedNetwork original{c};
  original.run_until(mid);
  std::stringstream stream;
  original.checkpoint(stream);

  ShardedNetwork resumed{c};
  resumed.restore(stream);
  resumed.run_until(end);

  EXPECT_EQ(checkpoint_text(resumed), expected);
  const std::optional<AuditReport> report = resumed.audit_report();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->checks_run, uninterrupted.audit_report()->checks_run);
  EXPECT_EQ(report->violation_count, 0u);
}

TEST(ShardEngineCheckpoint, AuditMismatchRefusedByName) {
  // A stream restores only into an engine that audits exactly when the
  // writer did; either mismatch is refused by name.
  const ScenarioConfig c = city(16, 4, 2);
  const auto written = [&c](const char* audit_env) {
    const EnvGuard audit{"BLAM_AUDIT", audit_env};
    ShardedNetwork engine{c};
    engine.run_until(Time::from_hours(6.0));
    return checkpoint_text(engine);
  };
  const auto restore_error = [&c](const std::string& text, const char* audit_env) {
    const EnvGuard audit{"BLAM_AUDIT", audit_env};
    ShardedNetwork engine{c};
    std::istringstream in{text};
    try {
      engine.restore(in);
    } catch (const std::runtime_error& e) {
      return std::string{e.what()};
    }
    return std::string{};
  };
  const std::string audited = written("1");
  const std::string plain = written("0");
  EXPECT_EQ(restore_error(audited, "1"), "");
  EXPECT_EQ(restore_error(plain, "0"), "");
  for (const std::string& error : {restore_error(audited, "0"), restore_error(plain, "1")}) {
    EXPECT_NE(error.find("differ in auditing (BLAM_AUDIT)"), std::string::npos) << error;
  }
}

TEST(ShardEngineCheckpoint, MetaMismatchRefusesRestore) {
  ScenarioConfig c = city(16, 4, 2);
  ShardedNetwork original{c};
  original.run_until(Time::from_hours(6.0));
  std::stringstream stream;
  original.checkpoint(stream);

  // Wrong seed: a different deployment entirely.
  ScenarioConfig wrong_seed = c;
  wrong_seed.seed = 22;
  ShardedNetwork other{wrong_seed};
  EXPECT_THROW(other.restore(stream), std::runtime_error);

  // Wrong shard count: slice boundaries differ.
  stream.clear();
  stream.seekg(0);
  ScenarioConfig wrong_shards = c;
  wrong_shards.shards = 4;
  ShardedNetwork reshaped{wrong_shards};
  ASSERT_EQ(reshaped.plan().effective, 4);
  EXPECT_THROW(reshaped.restore(stream), std::runtime_error);

  // Not a checkpoint stream at all.
  std::stringstream garbage{"not a checkpoint\n"};
  ShardedNetwork fresh{c};
  EXPECT_THROW(fresh.restore(garbage), std::runtime_error);

  // Streams of earlier format versions are refused at their magic line, by
  // name.
  for (const std::string version : {"blamsim v1", "blamsim v2", "blamsim v3"}) {
    std::string old = stream.str();
    old.replace(0, old.find('\n'), version);
    std::istringstream old_format{old};
    const std::string expected =
        "restore: not a \"blamsim v4\" checkpoint stream (\"" + version + "\" is not supported";
    ShardedNetwork fresh_again{c};
    try {
      fresh_again.restore(old_format);
      FAIL() << "a " << version << " stream must be refused";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string{e.what()}, expected + " by this build)");
    }
  }
}

/// Expects `call` to throw std::logic_error naming the failed restore.
template <typename Call>
void expect_refused(const char* what, const Call& call) {
  try {
    call();
    ADD_FAILURE() << what << " ran on a part-restored engine";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string{e.what()}.find("failed restore()"), std::string::npos) << e.what();
  }
}

TEST(ShardEngineCheckpoint, FailedRestoreRefusesToRun) {
  // A restore that fails can leave some slices restored and others fresh;
  // running on would be a silently wrong mix. Every later run_until,
  // checkpoint, finalize_metrics and restore must refuse by name.
  const ScenarioConfig c = city(800, 16, 4);
  ShardedNetwork original{c};
  ASSERT_EQ(original.plan().effective, 4);
  original.run_until(Time::from_days(1.0));
  const std::string text = checkpoint_text(original);

  // A stream cut at 7/8 of its length, and one whose last slice alone is
  // damaged (so the other three restore in parallel before it fails).
  std::string damaged = text;
  damaged.replace(damaged.rfind("section node\n") + 13, 0, "u 0\n");
  damaged = stream_edit::reseal(damaged);
  for (const std::string& bad : {text.substr(0, text.size() * 7 / 8), damaged}) {
    ShardedNetwork resumed{c};
    std::istringstream in{bad};
    EXPECT_THROW(resumed.restore(in), std::runtime_error);
    expect_refused("run_until", [&] { resumed.run_until(Time::from_days(2.0)); });
    expect_refused("checkpoint", [&] {
      std::ostringstream out;
      resumed.checkpoint(out);
    });
    expect_refused("finalize_metrics", [&] { resumed.finalize_metrics(); });
    expect_refused("restore", [&] {
      std::istringstream again{text};
      resumed.restore(again);
    });
  }
}

TEST(ShardEngineCheckpoint, RollingCheckpointFileResumes) {
  // BLAM_CHECKPOINT_EVERY=3 with a 1 h dissemination period: run_until is
  // sliced at 3 h boundaries and the rolling file is rewritten (atomically)
  // at each one. Resuming from the file reproduces the uninterrupted run.
  ScenarioConfig c = city(16, 4, 2);
  c.dissemination_period = Time::from_hours(1.0);
  const Time end = Time::from_hours(8.0);

  const std::string dir =
      (fs::temp_directory_path() / ("blam-ckpt." + std::to_string(::getpid()))).string();
  fs::create_directories(dir);
  ASSERT_EQ(setenv("BLAM_CHECKPOINT_EVERY", "3", 1), 0);
  ASSERT_EQ(setenv("BLAM_CHECKPOINT_DIR", dir.c_str(), 1), 0);
  ShardedNetwork writer{c};
  ASSERT_EQ(unsetenv("BLAM_CHECKPOINT_EVERY"), 0);
  ASSERT_EQ(unsetenv("BLAM_CHECKPOINT_DIR"), 0);
  ASSERT_FALSE(writer.serial());
  writer.run_until(end);

  const std::string ckpt = dir + "/blamsim.ckpt";
  ASSERT_TRUE(fs::exists(ckpt));
  EXPECT_FALSE(fs::exists(ckpt + ".tmp"));

  // The rolling file holds the LAST boundary (6 h), not the run end.
  ShardedNetwork resumed{c};
  {
    std::ifstream in{ckpt, std::ios::binary};
    ASSERT_TRUE(in.good());
    resumed.restore(in);
  }
  resumed.run_until(end);

  // Checkpoint slicing must not perturb results: the sliced writer and the
  // file-resumed engine both match a run that never checkpointed.
  ShardedNetwork uninterrupted{c};
  uninterrupted.run_until(end);
  EXPECT_EQ(checkpoint_text(resumed), checkpoint_text(uninterrupted));
  EXPECT_EQ(checkpoint_text(writer), checkpoint_text(uninterrupted));

  fs::remove_all(dir);
}

TEST(ShardEngineCheckpoint, GoldenStreamPin) {
  // The kill-resume drill compares two runs of one build, so it cannot see
  // a change that shifts event order, seq numbers or stream tokens between
  // builds. This pins the "blamsim v4" bytes of a small city, serial and
  // 4-shard (the latter also with every fault stream, whose crash events sit
  // days ahead), at the day-1 barrier and the 2-day end to constants. A
  // change that moves them changes results: it is a bug unless the change
  // means to alter the model (and then says so). The v4 constants were
  // recorded when the dead duty-cycle, forecast-noise and confirmed-bit
  // tokens left the format: each v4 stream is its v3 stream without those
  // tokens, line for line, with the same results.
  struct Pin {
    int shards;
    bool faults;
    std::uint64_t day1;
    std::uint64_t day2;
  };
  for (const Pin pin : {Pin{1, false, 0xad26367607f55be5ULL, 0x3379b176ccba81a3ULL},
                        Pin{4, false, 0x54030f8d0a1305b6ULL, 0x340a2c486ba93b92ULL},
                        Pin{4, true, 0x862ef10110004042ULL, 0x8832163aa2658a60ULL}}) {
    ScenarioConfig c = city(300, 16, pin.shards);
    if (pin.faults) add_faults(c);
    ShardedNetwork engine{c};
    ASSERT_EQ(engine.plan().effective, pin.shards);
    engine.run_until(Time::from_days(1.0));
    EXPECT_EQ(fnv1a64(checkpoint_text(engine)), pin.day1)
        << "shards=" << pin.shards << " faults=" << pin.faults;
    engine.run_until(Time::from_days(2.0));
    EXPECT_EQ(fnv1a64(checkpoint_text(engine)), pin.day2)
        << "shards=" << pin.shards << " faults=" << pin.faults;
  }
}

TEST(ShardEngineCheckpoint, RunUntilBeforeCursorIsANoOp) {
  const ScenarioConfig c = city(16, 4, 2);
  ShardedNetwork engine{c};
  engine.run_until(Time::from_hours(6.0));
  const std::string at_six = checkpoint_text(engine);
  engine.run_until(Time::from_hours(3.0));  // already past: must not rewind
  EXPECT_EQ(checkpoint_text(engine), at_six);
}

TEST(ShardEngineWatchdog, ResolveTimeoutEnv) {
  ASSERT_EQ(setenv("BLAM_SHARD_TIMEOUT_S", "2.5", 1), 0);
  EXPECT_EQ(resolve_shard_timeout_s(), 2.5);
  ASSERT_EQ(setenv("BLAM_SHARD_TIMEOUT_S", "nope", 1), 0);
  EXPECT_EQ(resolve_shard_timeout_s(), 0.0);
  ASSERT_EQ(setenv("BLAM_SHARD_TIMEOUT_S", "-1", 1), 0);
  EXPECT_EQ(resolve_shard_timeout_s(), 0.0);
  ASSERT_EQ(unsetenv("BLAM_SHARD_TIMEOUT_S"), 0);
  EXPECT_EQ(resolve_shard_timeout_s(), 0.0);
}

TEST(ShardEngineWatchdog, TimedBarrierSingleDetectorWithDiagnostics) {
  // Three parties, one never arrives. Exactly one of the two waiters must
  // become the detector (ShardWedged, with the laggard identified from the
  // heartbeats); the other unwinds with ShardAborted. No deadlock: the test
  // itself completes.
  ShardBarrier barrier{3, 0.2};
  ShardBarrier::Heartbeat stale;
  stale.epoch = 4;
  stale.queue_depth = 17;
  stale.sim_now = Time::from_hours(1.0);
  barrier.heartbeat(2, stale);  // the absent party's last known progress

  std::atomic<int> wedged{0};
  std::atomic<int> aborted{0};
  std::string report;
  std::mutex report_mutex;
  std::vector<std::thread> waiters;
  for (int party = 0; party < 2; ++party) {
    waiters.emplace_back([&, party] {
      ShardBarrier::Heartbeat hb;
      hb.epoch = 5;
      hb.queue_depth = 3;
      hb.sim_now = Time::from_hours(2.0);
      barrier.heartbeat(party, hb);
      try {
        barrier.sync();
      } catch (const ShardWedged& e) {
        wedged.fetch_add(1);
        const std::lock_guard<std::mutex> lock{report_mutex};
        report = e.what();
      } catch (const ShardAborted&) {
        aborted.fetch_add(1);
      }
    });
  }
  for (std::thread& waiter : waiters) waiter.join();

  EXPECT_EQ(wedged.load(), 1);
  EXPECT_EQ(aborted.load(), 1);
  EXPECT_TRUE(barrier.poisoned());
  EXPECT_NE(report.find("shard wedged"), std::string::npos) << report;
  EXPECT_NE(report.find("shard 2: epoch 4, queue depth 17"), std::string::npos) << report;
  EXPECT_NE(report.find("lagging"), std::string::npos) << report;
  // Once poisoned, every future collective call aborts immediately.
  EXPECT_THROW(barrier.sync(), ShardAborted);
}

TEST(ShardEngineWatchdog, KillChainUnwindsStuckWorkerAndWritesQuarantine) {
  // End-to-end wedge protocol, exactly as ShardedNetwork runs it: a healthy
  // worker heartbeats and syncs, the peer is stuck in a runaway event loop
  // that only polls the cooperative abort flag (as Simulator::run_until
  // does). The healthy worker's watchdog fires, it quarantines the run via
  // the production writer and raises the kill switch; the stuck worker
  // unwinds; both threads join — no detached threads, no deadlock.
  const ScratchFile quarantine{"blam-wedge-quarantine"};
  const ScenarioConfig config = city(16, 4, 2, /*seed=*/77);
  ShardBarrier barrier{2, 0.15};
  std::atomic<bool> abort_flag{false};
  std::atomic<bool> stuck_unwound{false};

  std::thread stuck{[&abort_flag, &stuck_unwound] {
    while (!abort_flag.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stuck_unwound.store(true);  // SimulationAborted unwinds to the catch
  }};
  std::thread healthy{[&] {
    ShardBarrier::Heartbeat hb;
    hb.epoch = 12;
    hb.queue_depth = 0;
    hb.sim_now = Time::from_days(1.0);
    barrier.heartbeat(0, hb);
    try {
      barrier.sync();
    } catch (const ShardWedged& e) {
      write_wedge_quarantine(quarantine.path(), config, e.what());
      abort_flag.store(true);
    }
  }};
  healthy.join();
  stuck.join();
  EXPECT_TRUE(stuck_unwound.load());

  const std::vector<QuarantinedCell> cells = load_quarantine(quarantine.path());
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].key, "sharded-run");
  EXPECT_EQ(cells[0].seed, 77u);
  EXPECT_TRUE(cells[0].timed_out);
  EXPECT_NE(cells[0].error.find("shard wedged"), std::string::npos);
  EXPECT_NE(cells[0].error.find("shard 0: epoch 12"), std::string::npos);
  EXPECT_FALSE(cells[0].config_text.empty());
}

}  // namespace
}  // namespace blam
