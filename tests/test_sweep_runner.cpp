// SweepRunner and fork_join: the parallel grid must be indistinguishable —
// bit for bit — from the serial path, sharded cells included, errors must
// propagate deterministically, and BLAM_JOBS=1 must degenerate to a plain
// loop on the calling thread.
#include "sim/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "env_guard.hpp"
#include "net/experiment.hpp"
#include "net/scenario_io.hpp"
#include "sim/shard_engine.hpp"
#include "state_stream_edit.hpp"

namespace blam {
namespace {

TEST(SweepRunnerTest, ResolveJobsPrefersExplicitThenEnvThenHardware) {
  const EnvGuard guard{"BLAM_JOBS"};
  ::setenv("BLAM_JOBS", "3", 1);
  EXPECT_EQ(resolve_jobs(), 3);
  EXPECT_EQ(resolve_jobs(7), 7);  // explicit beats the environment

  ::setenv("BLAM_JOBS", "not-a-number", 1);
  EXPECT_GE(resolve_jobs(), 1);  // malformed falls through to hardware
  ::setenv("BLAM_JOBS", "0", 1);
  EXPECT_GE(resolve_jobs(), 1);  // non-positive falls through too
  ::unsetenv("BLAM_JOBS");
  EXPECT_GE(resolve_jobs(), 1);
}

TEST(SweepRunnerTest, MapPreservesSubmissionOrder) {
  SweepOptions options;
  options.jobs = 8;
  SweepRunner runner{options};
  const std::vector<std::size_t> out =
      runner.map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunnerTest, SingleJobDegeneratesToSerialPathOnCallingThread) {
  SweepOptions options;
  options.jobs = 1;
  SweepRunner runner{options};
  EXPECT_EQ(runner.jobs(), 1);

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;  // unsynchronized on purpose: serial path
  runner.run_indexed(16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(SweepRunnerTest, ExceptionFromFailingCellPropagates) {
  SweepOptions options;
  options.jobs = 4;
  SweepRunner runner{options};
  EXPECT_THROW(
      {
        runner.run_indexed(8, [](std::size_t i) {
          if (i == 3) throw std::runtime_error{"cell 3 failed"};
        });
      },
      std::runtime_error);

  try {
    runner.run_indexed(8, [](std::size_t i) {
      if (i == 3) throw std::runtime_error{"cell 3 failed"};
    });
    FAIL() << "expected the cell exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 3 failed");
  }
}

TEST(SweepRunnerTest, LowestIndexFailureWinsWhenSeveralCellsThrow) {
  SweepOptions options;
  options.jobs = 4;
  SweepRunner runner{options};
  // Cells 0..3 are dequeued together; 1 and 2 both throw. Whatever order the
  // workers fail in, the reported error must be cell 1's.
  try {
    runner.run_indexed(4, [](std::size_t i) {
      if (i == 1 || i == 2) throw std::runtime_error{"cell " + std::to_string(i)};
    });
    FAIL() << "expected a cell exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 1");
  }
}

TEST(SweepRunnerTest, SerialSemanticsSkipCellsAfterFailure) {
  SweepOptions options;
  options.jobs = 1;
  SweepRunner runner{options};
  std::vector<std::size_t> ran;
  EXPECT_THROW(runner.run_indexed(8,
                                  [&](std::size_t i) {
                                    ran.push_back(i);
                                    if (i == 2) throw std::runtime_error{"boom"};
                                  }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(SweepRunnerTest, EmptyGridIsANoOp) {
  SweepRunner runner;
  std::atomic<int> calls{0};
  runner.run_indexed(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

// --- fork_join ----------------------------------------------------------------

/// Threads of this process, from /proc/self/task.
[[nodiscard]] std::ptrdiff_t process_threads() {
  return std::distance(std::filesystem::directory_iterator{"/proc/self/task"},
                       std::filesystem::directory_iterator{});
}

TEST(SweepRunnerTest, ForkJoinRunsIndexZeroOnTheCallingThread) {
  constexpr std::size_t kN = 4;
  std::array<std::thread::id, kN> ran_on{};
  fork_join(kN, [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  // Every other index had a thread of its own.
  for (std::size_t i = 1; i < kN; ++i) {
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(ran_on[i], ran_on[j]) << i << " vs " << j;
  }
}

TEST(SweepRunnerTest, ForkJoinOfOneStartsNoThread) {
  const std::ptrdiff_t before = process_threads();
  std::ptrdiff_t during = 0;
  std::thread::id ran_on;
  fork_join(1, [&](std::size_t) {
    during = process_threads();
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(during, before);
  fork_join(0, [](std::size_t) { ADD_FAILURE() << "fork_join(0) ran an index"; });
}

TEST(SweepRunnerTest, ForkJoinRunsEveryIndexOnceWhenALowerOneThrows) {
  constexpr std::size_t kN = 6;
  std::array<std::atomic<int>, kN> runs{};
  EXPECT_THROW(fork_join(kN,
                         [&](std::size_t i) {
                           ++runs[i];
                           if (i <= 1) throw std::runtime_error{"index " + std::to_string(i)};
                         }),
               std::runtime_error);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(runs[i].load(), 1) << "index " << i;
}

TEST(SweepRunnerTest, ForkJoinRethrowsTheLowestFailureAfterEveryIndexFinished) {
  constexpr std::size_t kN = 5;
  std::array<std::atomic<bool>, kN> finished{};
  try {
    fork_join(kN, [&](std::size_t i) {
      // Index 3 fails first and index 1 last; index 4 outlives both.
      if (i == 1) std::this_thread::sleep_for(std::chrono::milliseconds{20});
      if (i == 4) std::this_thread::sleep_for(std::chrono::milliseconds{60});
      finished[i] = true;
      if (i == 1 || i == 3) throw std::runtime_error{"index " + std::to_string(i)};
    });
    FAIL() << "expected an index's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 1");
    for (std::size_t i = 0; i < kN; ++i) EXPECT_TRUE(finished[i].load()) << "index " << i;
  }
}

// --- Scenario-grid determinism ---------------------------------------------

[[nodiscard]] std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Byte equality of the lossless codec: every field, every node, every bit.
void expect_bit_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(serialize_experiment_result(a), serialize_experiment_result(b));
}

// Small but real 3-protocol x 4-seed grid, per-seed shared weather — the
// shape every figure binary sweeps.
[[nodiscard]] std::vector<ScenarioCell> protocol_seed_grid() {
  std::vector<ScenarioCell> cells;
  for (std::uint64_t seed : {11, 12, 13, 14}) {
    const auto trace = build_shared_trace(lorawan_scenario(6, seed));
    cells.push_back({lorawan_scenario(6, seed), trace});
    cells.push_back({blam_scenario(6, 0.5, seed), trace});
    cells.push_back({greedy_green_scenario(6, seed), trace});
  }
  return cells;
}

TEST(SweepRunnerTest, ParallelGridMatchesSerialBitForBit) {
  const std::vector<ScenarioCell> cells = protocol_seed_grid();
  const Time duration = Time::from_days(5.0);

  // Serial reference: the plain loop the figure binaries used to run.
  std::vector<ExperimentResult> reference;
  reference.reserve(cells.size());
  for (const ScenarioCell& cell : cells) {
    reference.push_back(run_scenario(cell.config, duration, cell.trace));
  }

  for (int jobs : {1, 4}) {
    CampaignOptions options;
    options.sweep.jobs = jobs;
    const std::vector<ExperimentResult> swept = run_scenarios(cells, duration, options);
    ASSERT_EQ(swept.size(), reference.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < swept.size(); ++i) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) + " cell=" + std::to_string(i));
      expect_bit_identical(reference[i], swept[i]);
    }
  }
}

/// The shard tests' city: gateways on a 12 km grid, nodes within 1 km of
/// their own gateway, a -143 dBm audibility floor, so every gateway is its
/// own collision domain and the planner splits the fleet.
[[nodiscard]] ScenarioConfig sharded_city(std::uint64_t seed) {
  ScenarioConfig c;
  c.policy = PolicyKind::kBlam;
  c.theta = 0.5;
  c.n_nodes = 48;
  c.n_gateways = 4;
  c.gateway_grid_pitch_m = 12000.0;
  c.cluster_radius_m = 1000.0;
  c.interference_floor_dbm = -143.0;
  c.sf_assignment = SfAssignment::kDistanceBased;
  c.shards = 4;
  c.seed = seed;
  c.label = c.policy_label();
  return c;
}

// Each cell's four slices are barrier parties with a thread each, so four
// such cells on four grid workers run sixteen slice threads at once and
// must neither deadlock nor change a bit.
TEST(SweepRunnerTest, ShardedCellsInAParallelGridMatchSerial) {
  const EnvGuard guard{"BLAM_SHARDS"};
  ::unsetenv("BLAM_SHARDS");
  std::vector<ScenarioCell> cells;
  for (std::uint64_t seed : {31, 32, 33, 34}) cells.push_back({sharded_city(seed), nullptr});
  {
    const ShardedNetwork probe{cells.front().config};
    ASSERT_GT(probe.plan().effective, 1) << probe.plan().serial_reason;
  }

  const Time duration = Time::from_days(2.0);
  std::vector<std::vector<ExperimentResult>> grids;
  for (int jobs : {1, 4}) {
    CampaignOptions options;
    options.sweep.jobs = jobs;
    grids.push_back(run_scenarios(cells, duration, options));
  }
  ASSERT_EQ(grids[0].size(), cells.size());
  ASSERT_EQ(grids[1].size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell=" + std::to_string(i));
    EXPECT_GT(grids[0][i].events_executed, 0u);
    expect_bit_identical(grids[0][i], grids[1][i]);
  }
}

TEST(SweepRunnerTest, ParallelLifespanGridMatchesSerial) {
  std::vector<ScenarioCell> cells;
  const auto trace = build_shared_trace(lorawan_scenario(4, 21));
  cells.push_back({lorawan_scenario(4, 21), trace});
  cells.push_back({blam_scenario(4, 0.5, 21), trace});

  const Time max_duration = Time::from_days(20.0);
  const Time step = Time::from_days(5.0);
  std::vector<LifespanResult> reference;
  for (const ScenarioCell& cell : cells) {
    reference.push_back(run_until_eol(cell.config, max_duration, step, cell.trace));
  }

  CampaignOptions options;
  options.sweep.jobs = 2;
  const std::vector<LifespanResult> swept = run_lifespans(cells, max_duration, step, options);
  ASSERT_EQ(swept.size(), reference.size());
  for (std::size_t i = 0; i < swept.size(); ++i) {
    EXPECT_EQ(serialize_lifespan_result(swept[i]), serialize_lifespan_result(reference[i]));
  }
}

// --- Campaign integration: codec exactness + resume bit-identity -----------

TEST(SweepRunnerTest, LifespanCodecRoundTripsBitForBit) {
  LifespanResult result;
  result.label = "H-50 with spaces, commas, and a # mark";
  result.lifespan = Time::from_days(1234.5);
  result.reached_eol = true;
  result.series_step = Time::from_days(30.44);
  result.max_degradation_series = {0.0, 0.1 + 0.2, -0.0, 1e-308, 0.19999999999999998};

  const LifespanResult back = deserialize_lifespan_result(serialize_lifespan_result(result));
  EXPECT_EQ(back.label, result.label);
  EXPECT_EQ(back.lifespan.us(), result.lifespan.us());
  EXPECT_EQ(back.reached_eol, result.reached_eol);
  EXPECT_EQ(back.series_step.us(), result.series_step.us());
  ASSERT_EQ(back.max_degradation_series.size(), result.max_degradation_series.size());
  for (std::size_t i = 0; i < back.max_degradation_series.size(); ++i) {
    EXPECT_EQ(bits(back.max_degradation_series[i]), bits(result.max_degradation_series[i]));
  }

  // Every damaged payload ends in a named std::runtime_error, never in the
  // std::invalid_argument / std::out_of_range a std::stoull parser throws.
  const std::string good = serialize_lifespan_result(result);
  const std::string unsealed_reached = [&] {
    std::string text = good;
    const std::size_t at = text.find("\nu 1\n");
    return text.replace(at, 5, "\nu 2\n");
  }();
  const std::vector<std::string> damaged = {
      "not a payload",
      "L1 1 5 5 2 0000000000000000",          // old payload, truncated word list
      "L1 1 5 5 1 zz",                        // old payload, non-hex word
      "L1 1 5 5 1 00000000000000000000",      // old payload, over-long hex word
      good.substr(0, good.size() - 3),        // cut inside the trailer
      good + "section lifespan\n",            // trailing data
      unsealed_reached,                       // hash mismatch
      stream_edit::reseal(unsealed_reached),  // reached_eol is not 0/1
  };
  for (const std::string& payload : damaged) {
    try {
      (void)deserialize_lifespan_result(payload);
      ADD_FAILURE() << "accepted: " << payload;
    } catch (const std::runtime_error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "wrong exception type for '" << payload << "': " << e.what();
    }
  }
}

[[nodiscard]] std::string scratch_journal(const std::string& stem) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / (stem + "." + std::to_string(::getpid()) + ".journal"))
          .string();
  fs::remove(path);
  return path;
}

[[nodiscard]] std::vector<std::string> journal_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in{path};
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// A grid run under campaign options, each cell's result as codec bytes.
using GridBytes = std::function<std::vector<std::string>(const CampaignOptions&)>;

/// Runs a 3-cell grid as one uninterrupted journaled campaign, keeps the
/// first two journal lines (a kill after two cells) and resumes at
/// BLAM_JOBS=1 and 4: the resumed grid must match byte for byte, and only
/// the missing cell may run (and add a journal line).
void expect_resume_bit_identical(const std::string& stem, const GridBytes& run_grid) {
  const std::string journal = scratch_journal(stem);
  CampaignOptions options;
  options.sweep.jobs = 1;
  options.quarantine_path.clear();
  options.journal_path = journal;
  const std::vector<std::string> reference = run_grid(options);
  const std::vector<std::string> lines = journal_lines(journal);
  ASSERT_EQ(lines.size(), 3u);

  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    {
      std::ofstream out{journal, std::ios::trunc};
      out << lines[0] << "\n" << lines[1] << "\n";
    }
    CampaignOptions resume = options;
    resume.sweep.jobs = jobs;
    EXPECT_EQ(run_grid(resume), reference);
    EXPECT_EQ(journal_lines(journal).size(), 3u);
  }
  std::filesystem::remove(journal);
}

[[nodiscard]] std::vector<ScenarioCell> three_protocols() {
  std::vector<ScenarioCell> cells;
  const auto trace = build_shared_trace(lorawan_scenario(4, 21));
  cells.push_back({lorawan_scenario(4, 21), trace});
  cells.push_back({blam_scenario(4, 0.5, 21), trace});
  cells.push_back({blam_scenario(4, 1.0, 21), trace});
  return cells;
}

TEST(SweepRunnerTest, ResumedLifespanGridIsBitIdenticalAtAnyJobCount) {
  const std::vector<ScenarioCell> cells = three_protocols();
  expect_resume_bit_identical("blam_test_resume", [&](const CampaignOptions& options) {
    std::vector<std::string> out;
    for (const LifespanResult& r :
         run_lifespans(cells, Time::from_days(20.0), Time::from_days(5.0), options)) {
      out.push_back(serialize_lifespan_result(r));
    }
    return out;
  });
}

TEST(SweepRunnerTest, ResumedScenarioGridIsBitIdenticalAtAnyJobCount) {
  const std::vector<ScenarioCell> cells = three_protocols();
  const Time duration = Time::from_days(3.0);
  std::vector<std::string> plain;
  for (const ScenarioCell& cell : cells) {
    plain.push_back(serialize_experiment_result(run_scenario(cell.config, duration, cell.trace)));
  }
  expect_resume_bit_identical("blam_test_resume_scenarios", [&](const CampaignOptions& options) {
    std::vector<std::string> out;
    for (const ExperimentResult& r : run_scenarios(cells, duration, options)) {
      out.push_back(serialize_experiment_result(r));
    }
    EXPECT_EQ(out, plain) << "a campaign result differs from a plain run_scenario";
    return out;
  });
}

TEST(SweepRunnerTest, OlderJournalEntriesAreIgnoredAndTheirCellsRerun) {
  // Journals written before lifespan payloads moved onto the state codec
  // hold "L1" text payloads the current decoder cannot read. Their cells
  // were keyed by the scenario text, not by the hashed key, so a resume
  // must match none of them and rerun every cell instead of failing in the
  // decoder.
  const std::string journal = scratch_journal("blam_test_old_journal");

  std::vector<ScenarioCell> cells;
  const auto trace = build_shared_trace(lorawan_scenario(4, 21));
  cells.push_back({lorawan_scenario(4, 21), trace});
  cells.push_back({blam_scenario(4, 0.5, 21), trace});
  const Time max_duration = Time::from_days(10.0);
  const Time step = Time::from_days(5.0);
  CampaignOptions options;
  options.sweep.jobs = 2;
  options.quarantine_path.clear();
  const std::vector<LifespanResult> reference = run_lifespans(cells, max_duration, step, options);

  // The older build's journal line: FNV-1a 64 from offset basis
  // 1469598103934665603 over the untagged key and the "L1" payload. The
  // same entries are also written under today's hash, so the key alone has
  // to keep them out.
  const auto hash_from = [](std::uint64_t basis, const std::string& text) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(text, basis)));
    return std::string{hex};
  };
  const auto l1_payload = [](const LifespanResult& r) {
    std::string text = "L1 " + std::to_string(r.reached_eol ? 1 : 0) + " " +
                       std::to_string(r.lifespan.us()) + " " + std::to_string(r.series_step.us()) +
                       " " + std::to_string(r.max_degradation_series.size());
    for (const double v : r.max_degradation_series) {
      char word[20];
      std::snprintf(word, sizeof word, " %016llx", static_cast<unsigned long long>(bits(v)));
      text += word;
    }
    return text + " " + r.label;
  };
  {
    std::ofstream out{journal, std::ios::trunc};
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::string key = "lifespans " + std::to_string(max_duration.us()) + " " +
                              std::to_string(step.us()) + "\n" +
                              describe_scenario(cells[i].config);
      const std::string payload = l1_payload(reference[i]);
      for (const std::uint64_t basis : {std::uint64_t{1469598103934665603ULL}, kFnv1a64Basis}) {
        out << "v1 " << hash_from(basis, key) << ' ' << hash_from(basis, payload) << ' '
            << payload << '\n';
      }
    }
  }

  options.journal_path = journal;
  for (int pass = 0; pass < 2; ++pass) {  // rerun, then resume what the rerun journaled
    std::vector<LifespanResult> resumed;
    ASSERT_NO_THROW(resumed = run_lifespans(cells, max_duration, step, options)) << pass;
    ASSERT_EQ(resumed.size(), reference.size());
    for (std::size_t i = 0; i < resumed.size(); ++i) {
      SCOPED_TRACE("pass=" + std::to_string(pass) + " cell=" + std::to_string(i));
      EXPECT_EQ(serialize_lifespan_result(resumed[i]), serialize_lifespan_result(reference[i]));
    }
  }
  std::filesystem::remove(journal);
}

TEST(SweepRunnerTest, JournalNeverReplaysOneCellIntoAnother) {
  // Each pair differs in one field (the committed ablations vary chemistry,
  // utility and theta control; the rest are fields the scenario text never
  // printed). A journal written by cell A must not resume cell B, in either
  // grid kind: B has to come out as a fresh, un-journaled B.
  const std::string journal = scratch_journal("blam_test_cell_key");
  const ScenarioConfig lmo = lorawan_scenario(4, 21);
  ScenarioConfig nmc = lmo;
  nmc.degradation = DegradationParams::nmc();
  const ScenarioConfig linear = blam_scenario(4, 0.5, 21);
  ScenarioConfig step_utility = linear;
  step_utility.utility = UtilityKind::kStep;
  ScenarioConfig adaptive = linear;
  adaptive.adaptive_theta = true;
  ScenarioConfig weather = linear;
  weather.solar.seed = 2;
  const std::vector<std::pair<ScenarioConfig, ScenarioConfig>> pairs = {
      {lmo, nmc}, {linear, step_utility}, {linear, adaptive}, {linear, weather}};
  const Time max_duration = Time::from_days(20.0);
  const Time step = Time::from_days(5.0);
  // One cell's result as codec bytes, through each grid kind.
  using RunCell = std::function<std::string(const ScenarioConfig&, const CampaignOptions&)>;
  const std::vector<RunCell> kinds = {
      [&](const ScenarioConfig& c, const CampaignOptions& o) {
        return serialize_lifespan_result(run_lifespans({{c, nullptr}}, max_duration, step, o)[0]);
      },
      [&](const ScenarioConfig& c, const CampaignOptions& o) {
        return serialize_experiment_result(run_scenarios({{c, nullptr}}, max_duration, o)[0]);
      }};
  CampaignOptions plain;
  plain.sweep.jobs = 1;
  plain.quarantine_path.clear();
  CampaignOptions journaled = plain;
  journaled.journal_path = journal;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      SCOPED_TRACE("kind " + std::to_string(k) + ", pair " + std::to_string(i));
      const std::string fresh_a = kinds[k](pairs[i].first, plain);
      const std::string fresh_b = kinds[k](pairs[i].second, plain);
      ASSERT_NE(fresh_a, fresh_b) << "the varied field must change the result";

      std::filesystem::remove(journal);
      (void)kinds[k](pairs[i].first, journaled);
      ASSERT_EQ(journal_lines(journal).size(), 1u);
      EXPECT_EQ(kinds[k](pairs[i].second, journaled), fresh_b);
    }
  }
  std::filesystem::remove(journal);
}

TEST(SweepRunnerTest, CancellableRunScenarioIsBitIdenticalToUncancelled) {
  const ScenarioConfig config = blam_scenario(4, 0.5, 33);
  const Time duration = Time::from_days(3.0);
  const ExperimentResult plain = run_scenario(config, duration);
  const CellToken token;  // never cancelled: slicing must not change anything
  const ExperimentResult sliced = run_scenario(config, duration, nullptr, &token);
  expect_bit_identical(plain, sliced);
}

}  // namespace
}  // namespace blam
