// SweepRunner: the parallel grid must be indistinguishable — bit for bit —
// from the serial path, errors must propagate deterministically, and
// BLAM_JOBS=1 must degenerate to a plain loop on the calling thread.
#include "sim/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "net/experiment.hpp"
#include "net/scenario_io.hpp"
#include "state_stream_edit.hpp"

namespace blam {
namespace {

// RAII guard so BLAM_JOBS manipulation cannot leak into other tests.
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_{name} {
    if (const char* v = std::getenv(name)) saved_ = v;
  }
  ~EnvGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

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
  EXPECT_EQ(runner.cell_seconds().size(), 100u);
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
  EXPECT_TRUE(runner.cell_seconds().empty());
}

// --- Scenario-grid determinism ---------------------------------------------

[[nodiscard]] std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bit_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(bits(a.summary.mean_prr), bits(b.summary.mean_prr));
  EXPECT_EQ(bits(a.summary.min_prr), bits(b.summary.min_prr));
  EXPECT_EQ(bits(a.summary.mean_utility), bits(b.summary.mean_utility));
  EXPECT_EQ(bits(a.summary.mean_retx), bits(b.summary.mean_retx));
  EXPECT_EQ(bits(a.summary.mean_latency_s), bits(b.summary.mean_latency_s));
  EXPECT_EQ(bits(a.summary.total_tx_energy.joules()), bits(b.summary.total_tx_energy.joules()));
  EXPECT_EQ(bits(a.summary.degradation_box.mean), bits(b.summary.degradation_box.mean));
  EXPECT_EQ(bits(a.summary.max_degradation), bits(b.summary.max_degradation));
  EXPECT_EQ(a.window_histogram, b.window_histogram);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].generated, b.nodes[i].generated);
    EXPECT_EQ(a.nodes[i].delivered, b.nodes[i].delivered);
    EXPECT_EQ(a.nodes[i].tx_attempts, b.nodes[i].tx_attempts);
    EXPECT_EQ(a.nodes[i].retx, b.nodes[i].retx);
    EXPECT_EQ(bits(a.nodes[i].tx_energy.joules()), bits(b.nodes[i].tx_energy.joules()));
    EXPECT_EQ(bits(a.nodes[i].degradation), bits(b.nodes[i].degradation));
    EXPECT_EQ(a.nodes[i].window_counts, b.nodes[i].window_counts);
  }
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
    SweepOptions options;
    options.jobs = jobs;
    const std::vector<ExperimentResult> swept = run_scenarios(cells, duration, options);
    ASSERT_EQ(swept.size(), reference.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < swept.size(); ++i) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) + " cell=" + std::to_string(i));
      expect_bit_identical(reference[i], swept[i]);
    }
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

  SweepOptions options;
  options.jobs = 2;
  const std::vector<LifespanResult> swept = run_lifespans(cells, max_duration, step, options);
  ASSERT_EQ(swept.size(), reference.size());
  for (std::size_t i = 0; i < swept.size(); ++i) {
    EXPECT_EQ(swept[i].label, reference[i].label);
    EXPECT_EQ(swept[i].reached_eol, reference[i].reached_eol);
    EXPECT_EQ(bits(swept[i].lifespan.seconds()), bits(reference[i].lifespan.seconds()));
    ASSERT_EQ(swept[i].max_degradation_series.size(), reference[i].max_degradation_series.size());
    for (std::size_t k = 0; k < swept[i].max_degradation_series.size(); ++k) {
      EXPECT_EQ(bits(swept[i].max_degradation_series[k]),
                bits(reference[i].max_degradation_series[k]));
    }
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

TEST(SweepRunnerTest, ResumedLifespanGridIsBitIdenticalAtAnyJobCount) {
  namespace fs = std::filesystem;
  const std::string journal =
      (fs::temp_directory_path() /
       ("blam_test_resume." + std::to_string(::getpid()) + ".journal"))
          .string();
  fs::remove(journal);

  std::vector<ScenarioCell> cells;
  const auto trace = build_shared_trace(lorawan_scenario(4, 21));
  cells.push_back({lorawan_scenario(4, 21), trace});
  cells.push_back({blam_scenario(4, 0.5, 21), trace});
  cells.push_back({blam_scenario(4, 1.0, 21), trace});
  const Time max_duration = Time::from_days(20.0);
  const Time step = Time::from_days(5.0);

  // Reference: the whole grid in one uninterrupted campaign.
  CampaignOptions options;
  options.sweep.jobs = 1;
  options.quarantine_path.clear();
  options.journal_path = journal;
  const std::vector<LifespanResult> reference =
      run_lifespans(cells, max_duration, step, options);
  ASSERT_TRUE(fs::exists(journal));

  // Simulate a kill after two cells: keep the first two journal lines only.
  std::vector<std::string> lines;
  {
    std::ifstream in{journal};
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);

  for (int jobs : {1, 4}) {
    {
      std::ofstream out{journal, std::ios::trunc};
      out << lines[0] << "\n" << lines[1] << "\n";
    }
    CampaignOptions resume = options;
    resume.sweep.jobs = jobs;
    const std::vector<LifespanResult> resumed =
        run_lifespans(cells, max_duration, step, resume);
    ASSERT_EQ(resumed.size(), reference.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < resumed.size(); ++i) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) + " cell=" + std::to_string(i));
      EXPECT_EQ(resumed[i].label, reference[i].label);
      EXPECT_EQ(resumed[i].reached_eol, reference[i].reached_eol);
      EXPECT_EQ(resumed[i].lifespan.us(), reference[i].lifespan.us());
      EXPECT_EQ(resumed[i].series_step.us(), reference[i].series_step.us());
      ASSERT_EQ(resumed[i].max_degradation_series.size(),
                reference[i].max_degradation_series.size());
      for (std::size_t k = 0; k < resumed[i].max_degradation_series.size(); ++k) {
        EXPECT_EQ(bits(resumed[i].max_degradation_series[k]),
                  bits(reference[i].max_degradation_series[k]));
      }
    }
  }
  fs::remove(journal);
}

TEST(SweepRunnerTest, OlderJournalEntriesAreIgnoredAndTheirCellsRerun) {
  // Journals written before lifespan payloads moved onto the state codec
  // hold "L1" text payloads the current decoder cannot read. Their cells
  // were keyed without the payload-format tag, so a resume must match none
  // of them and rerun every cell instead of failing in the decoder.
  namespace fs = std::filesystem;
  const std::string journal =
      (fs::temp_directory_path() /
       ("blam_test_old_journal." + std::to_string(::getpid()) + ".journal"))
          .string();
  fs::remove(journal);

  std::vector<ScenarioCell> cells;
  const auto trace = build_shared_trace(lorawan_scenario(4, 21));
  cells.push_back({lorawan_scenario(4, 21), trace});
  cells.push_back({blam_scenario(4, 0.5, 21), trace});
  const Time max_duration = Time::from_days(10.0);
  const Time step = Time::from_days(5.0);
  const std::vector<LifespanResult> reference =
      run_lifespans(cells, max_duration, step, SweepOptions{});

  // The older build's journal line: FNV-1a 64 from offset basis
  // 1469598103934665603 over the untagged key and the "L1" payload. The
  // same entries are also written under today's hash, so the key tag alone
  // has to keep them out.
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

  CampaignOptions options;
  options.sweep.jobs = 2;
  options.quarantine_path.clear();
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
  fs::remove(journal);
}

TEST(SweepRunnerTest, JournalNeverReplaysOneCellIntoAnother) {
  // The committed ablation grids vary chemistry, utility and theta control
  // between cells that share every other field. A journal written by cell A
  // must not resume cell B: B has to come out as a fresh, un-journaled B.
  namespace fs = std::filesystem;
  const std::string journal =
      (fs::temp_directory_path() /
       ("blam_test_cell_key." + std::to_string(::getpid()) + ".journal"))
          .string();
  const ScenarioConfig lmo = lorawan_scenario(4, 21);
  ScenarioConfig nmc = lmo;
  nmc.degradation = DegradationParams::nmc();
  const ScenarioConfig linear = blam_scenario(4, 0.5, 21);
  ScenarioConfig step_utility = linear;
  step_utility.utility = UtilityKind::kStep;
  step_utility.step_floor = 0.0;
  ScenarioConfig adaptive = linear;
  adaptive.adaptive_theta = true;
  const std::vector<std::pair<ScenarioConfig, ScenarioConfig>> pairs = {
      {lmo, nmc}, {linear, step_utility}, {linear, adaptive}};
  const Time max_duration = Time::from_days(20.0);
  const Time step = Time::from_days(5.0);
  CampaignOptions options;
  options.sweep.jobs = 1;
  options.quarantine_path.clear();
  options.journal_path = journal;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    SCOPED_TRACE("pair " + std::to_string(i));
    const std::vector<ScenarioCell> cell_a{{pairs[i].first, nullptr}};
    const std::vector<ScenarioCell> cell_b{{pairs[i].second, nullptr}};
    const std::string fresh_a = serialize_lifespan_result(
        run_lifespans(cell_a, max_duration, step, SweepOptions{}).at(0));
    const std::string fresh_b = serialize_lifespan_result(
        run_lifespans(cell_b, max_duration, step, SweepOptions{}).at(0));
    ASSERT_NE(fresh_a, fresh_b) << "the varied field must change the result";

    fs::remove(journal);
    (void)run_lifespans(cell_a, max_duration, step, options);
    ASSERT_TRUE(fs::exists(journal));
    const LifespanResult resumed_b = run_lifespans(cell_b, max_duration, step, options).at(0);
    EXPECT_EQ(serialize_lifespan_result(resumed_b), fresh_b);
  }
  fs::remove(journal);
}

TEST(SweepRunnerTest, ScenarioCampaignRejectsJournalButRunsOtherwise) {
  std::vector<ScenarioCell> cells;
  cells.push_back({lorawan_scenario(4, 21), nullptr});
  const Time duration = Time::from_days(2.0);

  CampaignOptions with_journal;
  with_journal.journal_path = "anywhere.journal";
  EXPECT_THROW((void)run_scenarios(cells, duration, with_journal), std::invalid_argument);

  CampaignOptions options;
  options.sweep.jobs = 1;
  options.quarantine_path.clear();
  const std::vector<ExperimentResult> campaign = run_scenarios(cells, duration, options);
  const ExperimentResult plain = run_scenario(cells[0].config, duration, cells[0].trace);
  ASSERT_EQ(campaign.size(), 1u);
  expect_bit_identical(plain, campaign[0]);
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
