// Resumable campaign engine: journal-based resume, and a failing cell
// failing the grid once, by label, with the finished cells journaled.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
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
    cells.push_back(cell);
  }
  return cells;
}

CampaignOptions quiet_options() {
  CampaignOptions options;
  options.sweep.jobs = 1;
  return options;
}

TEST(CampaignTest, JournalResumeSkipsCompletedCellsWithIdenticalPayloads) {
  ScratchFile journal{"blam_test_journal"};
  CampaignOptions options = quiet_options();
  options.journal_path = journal.path();

  Campaign first{three_cells(), options};
  const CampaignReport fresh = first.run([](std::size_t i) {
    return "payload with spaces & newline\n#" + std::to_string(i);
  });
  EXPECT_EQ(fresh.resumed, 0u);
  ASSERT_TRUE(fs::exists(journal.path()));

  Campaign second{three_cells(), options};
  std::atomic<int> body_calls{0};
  const CampaignReport resumed = second.run([&](std::size_t) {
    body_calls.fetch_add(1);
    return std::string{"SHOULD NOT RUN"};
  });
  EXPECT_EQ(body_calls.load(), 0);
  EXPECT_EQ(resumed.resumed, 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(resumed.results[i], fresh.results[i]);
  }
}

TEST(CampaignTest, TornJournalLineIsIgnoredAndOnlyThatCellReruns) {
  ScratchFile journal{"blam_test_journal_torn"};
  CampaignOptions options = quiet_options();
  options.journal_path = journal.path();

  Campaign first{three_cells(), options};
  (void)first.run(
      [](std::size_t i) { return "payload-" + std::to_string(i); });

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
  const CampaignReport report = second.run([&](std::size_t i) {
    body_calls.fetch_add(1);
    return "payload-" + std::to_string(i);
  });
  EXPECT_EQ(body_calls.load(), 1);  // only the torn cell re-runs
  EXPECT_EQ(report.resumed, 2u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(report.results[i], "payload-" + std::to_string(i));
  }
}

TEST(CampaignTest, ChangedCellKeyInvalidatesTheJournalEntry) {
  ScratchFile journal{"blam_test_journal_key"};
  CampaignOptions options = quiet_options();
  options.journal_path = journal.path();

  Campaign first{three_cells(), options};
  (void)first.run([](std::size_t) { return std::string{"stale"}; });

  std::vector<CampaignCell> cells = three_cells();
  cells[1].key += " (config changed)";
  Campaign second{cells, options};
  std::atomic<int> body_calls{0};
  const CampaignReport report = second.run([&](std::size_t) {
    body_calls.fetch_add(1);
    return std::string{"fresh"};
  });
  EXPECT_EQ(body_calls.load(), 1);
  EXPECT_EQ(report.resumed, 2u);
  EXPECT_EQ(report.results[0], "stale");
  EXPECT_EQ(report.results[1], "fresh");
  EXPECT_EQ(report.results[2], "stale");
}

TEST(CampaignTest, FailingCellRunsOnceFailsTheGridByLabelAndResumes) {
  // A cell's computation is deterministic, so a throwing cell runs exactly
  // once and fails the grid under its label; no later cell starts (one
  // worker), the cells finished before it stay journaled, and a rerun with
  // the cause fixed resumes them without calling the body.
  ScratchFile journal{"blam_test_journal_fail"};
  CampaignOptions options = quiet_options();
  options.journal_path = journal.path();

  std::vector<int> calls(3, 0);
  Campaign first{three_cells(), options};
  try {
    (void)first.run([&](std::size_t i) -> std::string {
      ++calls[i];
      if (i == 1) throw std::runtime_error{"deterministic failure"};
      return "payload-" + std::to_string(i);
    });
    FAIL() << "the grid must fail";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell-1: deterministic failure");
  }
  EXPECT_EQ(calls, (std::vector<int>{1, 1, 0}));

  std::vector<std::size_t> rerun;
  Campaign second{three_cells(), options};
  const CampaignReport report = second.run([&](std::size_t i) {
    rerun.push_back(i);
    return "payload-" + std::to_string(i);
  });
  EXPECT_EQ(rerun, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(report.resumed, 1u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(report.results[i], "payload-" + std::to_string(i));
}

TEST(CampaignTest, CellsInFlightWhenOneFailsAreJournaled) {
  // Four workers, four cells, all started before any fails: cell 0 throws
  // once every cell is in flight, cell 2 throws after it, and cells 1 and 3
  // return after it. The cells in flight finish and are journaled, and the
  // lowest-index failure is the one rethrown.
  ScratchFile journal{"blam_test_journal_inflight"};
  CampaignOptions options = quiet_options();
  options.sweep.jobs = 4;
  options.journal_path = journal.path();
  std::vector<CampaignCell> cells = three_cells();
  cells.push_back({"cell-key-3", ""});

  std::atomic<int> started{0};
  std::atomic<bool> cell0_threw{false};
  Campaign first{cells, options};
  try {
    (void)first.run([&](std::size_t i) -> std::string {
      started.fetch_add(1);
      if (i == 0) {
        while (started.load() < 4) std::this_thread::yield();
        cell0_threw.store(true);
        throw std::runtime_error{"cell 0 failed"};
      }
      while (!cell0_threw.load()) std::this_thread::yield();
      if (i == 2) throw std::runtime_error{"cell 2 failed"};
      return "payload-" + std::to_string(i);
    });
    FAIL() << "the grid must fail";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell-0: cell 0 failed");
  }

  std::vector<std::size_t> rerun;
  std::mutex rerun_mutex;
  Campaign second{cells, options};
  const CampaignReport report = second.run([&](std::size_t i) {
    const std::lock_guard<std::mutex> lock{rerun_mutex};
    rerun.push_back(i);
    return "payload-" + std::to_string(i);
  });
  std::sort(rerun.begin(), rerun.end());
  EXPECT_EQ(rerun, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(report.resumed, 2u);
  EXPECT_EQ(report.results[3], "payload-3");
}

}  // namespace
}  // namespace blam
