// Crash-tolerant campaign engine: retry/quarantine, watchdog timeouts,
// quarantine JSON round-trips, and journal-based resume.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/campaign.hpp"

namespace blam {
namespace {

namespace fs = std::filesystem;

// Unique per-test scratch file, removed on destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& stem)
      : path_{(fs::temp_directory_path() /
               (stem + "." + std::to_string(::getpid()) + ".tmp"))
                  .string()} {
    fs::remove(path_);
  }
  ~ScratchFile() { fs::remove(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<CampaignCell> three_cells() {
  std::vector<CampaignCell> cells;
  for (int i = 0; i < 3; ++i) {
    CampaignCell cell;
    cell.key = "cell-key-" + std::to_string(i) + "\nconfig body " + std::to_string(i);
    cell.label = "cell-" + std::to_string(i);
    cell.seed = 100 + static_cast<std::uint64_t>(i);
    cell.config_text = "config " + std::to_string(i);
    cells.push_back(cell);
  }
  return cells;
}

CampaignOptions quiet_options() {
  CampaignOptions options;
  options.sweep.jobs = 1;
  options.quarantine_path.clear();  // tests opt in explicitly
  return options;
}

TEST(CampaignTest, RetrySucceedsAfterTransientFailure) {
  CampaignOptions options = quiet_options();
  options.retries = 1;
  Campaign campaign{three_cells(), options};
  std::atomic<int> failures_left{1};
  std::atomic<int> calls{0};
  const CampaignReport report = campaign.run([&](std::size_t i, const CellToken&) {
    calls.fetch_add(1);
    if (i == 1 && failures_left.fetch_sub(1) > 0) {
      throw std::runtime_error{"transient"};
    }
    return "payload-" + std::to_string(i);
  });
  EXPECT_EQ(calls.load(), 4);  // 3 cells + 1 retry
  EXPECT_TRUE(report.quarantined.empty());
  ASSERT_EQ(report.results.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(report.results[i].has_value());
    EXPECT_EQ(*report.results[i], "payload-" + std::to_string(i));
  }
}

TEST(CampaignTest, ExhaustedRetriesQuarantineTheCellAndKeepTheGrid) {
  ScratchFile quarantine{"blam_test_quarantine"};
  CampaignOptions options = quiet_options();
  options.retries = 2;
  options.quarantine_path = quarantine.path();
  Campaign campaign{three_cells(), options};
  std::atomic<int> cell1_calls{0};
  const CampaignReport report = campaign.run([&](std::size_t i, const CellToken&) {
    if (i == 1) {
      cell1_calls.fetch_add(1);
      throw std::runtime_error{"deterministic \"bad\" cell"};
    }
    return std::string{"ok"};
  });
  EXPECT_EQ(cell1_calls.load(), 3);  // initial attempt + 2 retries
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].label, "cell-1");
  EXPECT_EQ(report.quarantined[0].attempts, 3);
  EXPECT_FALSE(report.quarantined[0].timed_out);
  EXPECT_FALSE(report.results[1].has_value());
  EXPECT_TRUE(report.results[0].has_value());
  EXPECT_TRUE(report.results[2].has_value());

  // The quarantine file round-trips, including the quoted error text.
  ASSERT_TRUE(fs::exists(quarantine.path()));
  const std::vector<QuarantinedCell> loaded = load_quarantine(quarantine.path());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].key, report.quarantined[0].key);
  EXPECT_EQ(loaded[0].seed, 101u);
  EXPECT_EQ(loaded[0].error, "deterministic \"bad\" cell");
  EXPECT_EQ(loaded[0].config_text, "config 1");

  EXPECT_THROW(throw_if_quarantined(report, quarantine.path()), std::runtime_error);
}

TEST(CampaignTest, CleanRunRemovesAStaleQuarantineFile) {
  ScratchFile quarantine{"blam_test_quarantine_stale"};
  QuarantinedCell stale;
  stale.key = "old";
  stale.label = "old";
  write_quarantine(quarantine.path(), {stale});
  ASSERT_TRUE(fs::exists(quarantine.path()));
  CampaignOptions options = quiet_options();
  options.quarantine_path = quarantine.path();
  Campaign campaign{three_cells(), options};
  const CampaignReport report =
      campaign.run([](std::size_t, const CellToken&) { return std::string{"ok"}; });
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_FALSE(fs::exists(quarantine.path()));  // presence means loss
  EXPECT_NO_THROW(throw_if_quarantined(report, quarantine.path()));
}

TEST(CampaignTest, IdenticalQuarantinedCellsKeepCellOrder) {
  // Two cells with one key (a grid may repeat a config, as
  // ablation_extensions repeats H-50) both fail, cell 1 first: the report
  // still lists them in cell order.
  CampaignOptions options = quiet_options();
  options.sweep.jobs = 4;
  options.retries = 0;
  const CampaignCell cell = three_cells()[0];
  Campaign campaign{{cell, cell}, options};
  std::atomic<bool> second_started{false};
  const CampaignReport report = campaign.run([&](std::size_t i, const CellToken&) -> std::string {
    if (i == 1) {
      second_started.store(true);
    } else {
      // Fail well after cell 1 does, so its entry lands first.
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{5};
      while (!second_started.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
      }
      std::this_thread::sleep_for(std::chrono::milliseconds{50});
    }
    throw std::runtime_error{"cell " + std::to_string(i)};
  });
  ASSERT_EQ(report.quarantined.size(), 2u);
  EXPECT_EQ(report.quarantined[0].error, "cell 0");
  EXPECT_EQ(report.quarantined[1].error, "cell 1");
}

TEST(CampaignTest, WatchdogCancelsAHungCell) {
  CampaignOptions options = quiet_options();
  options.cell_timeout_s = 0.1;
  options.retries = 0;
  Campaign campaign{three_cells(), options};
  const CampaignReport report = campaign.run([](std::size_t i, const CellToken& token) {
    if (i == 2) {
      // A "hung" cell that still honors cooperative cancellation.
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (std::chrono::steady_clock::now() < deadline) {
        token.throw_if_cancelled();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    return std::string{"done"};
  });
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].label, "cell-2");
  EXPECT_TRUE(report.quarantined[0].timed_out);
  EXPECT_FALSE(report.results[2].has_value());
  EXPECT_TRUE(report.results[0].has_value());
  EXPECT_TRUE(report.results[1].has_value());
}

// A budget past the steady clock's range is no deadline at all; it used to
// overflow the deadline arithmetic and time every cell out at once.
TEST(CampaignTest, TimeoutPastTheClockRangeNeverFires) {
  CampaignOptions options = quiet_options();
  options.cell_timeout_s = 1e300;
  options.retries = 0;
  Campaign campaign{three_cells(), options};
  const CampaignReport report = campaign.run([](std::size_t, const CellToken& token) {
    std::this_thread::sleep_for(std::chrono::milliseconds{30});
    token.throw_if_cancelled();
    return std::string{"done"};
  });
  EXPECT_TRUE(report.quarantined.empty());
  for (const auto& result : report.results) EXPECT_EQ(result, "done");
}

TEST(CampaignTest, QuarantineJsonRoundTripsSpecialCharacters) {
  ScratchFile path{"blam_test_quarantine_escape"};
  QuarantinedCell cell;
  cell.key = "line1\nline2\t\"quoted\" \\slash\\";
  cell.label = "wei\"rd,label";
  cell.seed = 18446744073709551615ull;
  cell.attempts = 7;
  cell.timed_out = true;
  cell.error = "error with\nnewline and \"quotes\"";
  cell.config_text = "a = 1\nb = \"x\\y\"\n";
  write_quarantine(path.path(), {cell});
  const std::vector<QuarantinedCell> loaded = load_quarantine(path.path());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].key, cell.key);
  EXPECT_EQ(loaded[0].label, cell.label);
  EXPECT_EQ(loaded[0].seed, cell.seed);
  EXPECT_EQ(loaded[0].attempts, cell.attempts);
  EXPECT_EQ(loaded[0].timed_out, cell.timed_out);
  EXPECT_EQ(loaded[0].error, cell.error);
  EXPECT_EQ(loaded[0].config_text, cell.config_text);
}

TEST(CampaignTest, JournalResumeSkipsCompletedCellsWithIdenticalPayloads) {
  ScratchFile journal{"blam_test_journal"};
  CampaignOptions options = quiet_options();
  options.journal_path = journal.path();

  Campaign first{three_cells(), options};
  const CampaignReport fresh = first.run([](std::size_t i, const CellToken&) {
    return "payload with spaces & newline\n#" + std::to_string(i);
  });
  EXPECT_EQ(fresh.resumed, 0u);
  ASSERT_TRUE(fs::exists(journal.path()));

  Campaign second{three_cells(), options};
  std::atomic<int> body_calls{0};
  const CampaignReport resumed = second.run([&](std::size_t, const CellToken&) {
    body_calls.fetch_add(1);
    return std::string{"SHOULD NOT RUN"};
  });
  EXPECT_EQ(body_calls.load(), 0);
  EXPECT_EQ(resumed.resumed, 3u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(resumed.results[i].has_value());
    EXPECT_EQ(*resumed.results[i], *fresh.results[i]);
  }
}

TEST(CampaignTest, TornJournalLineIsIgnoredAndOnlyThatCellReruns) {
  ScratchFile journal{"blam_test_journal_torn"};
  CampaignOptions options = quiet_options();
  options.journal_path = journal.path();

  Campaign first{three_cells(), options};
  (void)first.run(
      [](std::size_t i, const CellToken&) { return "payload-" + std::to_string(i); });

  // Simulate kill -9 mid-append: chop the last journal line in half and add
  // line noise. The loader must drop both without rejecting the file.
  std::string text;
  {
    std::ifstream in{journal.path()};
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    lines[2] = lines[2].substr(0, lines[2].size() / 2);
    for (const std::string& l : lines) text += l + "\n";
    text += "complete garbage, not a journal line\n";
    text.pop_back();  // torn final newline too
  }
  {
    std::ofstream out{journal.path(), std::ios::trunc};
    out << text;
  }

  Campaign second{three_cells(), options};
  std::atomic<int> body_calls{0};
  const CampaignReport report = second.run([&](std::size_t i, const CellToken&) {
    body_calls.fetch_add(1);
    return "payload-" + std::to_string(i);
  });
  EXPECT_EQ(body_calls.load(), 1);  // only the torn cell re-runs
  EXPECT_EQ(report.resumed, 2u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(report.results[i].has_value());
    EXPECT_EQ(*report.results[i], "payload-" + std::to_string(i));
  }
}

TEST(CampaignTest, ChangedCellKeyInvalidatesTheJournalEntry) {
  ScratchFile journal{"blam_test_journal_key"};
  CampaignOptions options = quiet_options();
  options.journal_path = journal.path();

  Campaign first{three_cells(), options};
  (void)first.run([](std::size_t, const CellToken&) { return std::string{"stale"}; });

  std::vector<CampaignCell> cells = three_cells();
  cells[1].key += " (config changed)";
  Campaign second{cells, options};
  std::atomic<int> body_calls{0};
  const CampaignReport report = second.run([&](std::size_t, const CellToken&) {
    body_calls.fetch_add(1);
    return std::string{"fresh"};
  });
  EXPECT_EQ(body_calls.load(), 1);
  EXPECT_EQ(report.resumed, 2u);
  EXPECT_EQ(*report.results[0], "stale");
  EXPECT_EQ(*report.results[1], "fresh");
  EXPECT_EQ(*report.results[2], "stale");
}

TEST(CampaignTest, CellTokenThrowsOnlyWhenCancelled) {
  const CellToken no_deadline;
  EXPECT_FALSE(no_deadline.cancelled());
  EXPECT_NO_THROW(no_deadline.throw_if_cancelled());

  const CellToken::Clock::time_point now = CellToken::Clock::now();
  const CellToken past{now - std::chrono::milliseconds{1}};
  EXPECT_TRUE(past.cancelled());
  EXPECT_THROW(past.throw_if_cancelled(), CellTimeout);

  const CellToken future{now + std::chrono::hours{1}};
  const CellToken copy = future;  // copies carry the same deadline
  EXPECT_FALSE(copy.cancelled());
  EXPECT_NO_THROW(copy.throw_if_cancelled());
  const CellToken past_copy = past;
  EXPECT_THROW(past_copy.throw_if_cancelled(), CellTimeout);
}

}  // namespace
}  // namespace blam
