// Atomic CSV emission: temp-file staging, flush()-as-commit, and the
// forgotten-flush safety net.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/csv.hpp"

namespace blam {
namespace {

namespace fs = std::filesystem;

class ScratchCsv {
 public:
  explicit ScratchCsv(const std::string& stem)
      : path_{(fs::temp_directory_path() /
               (stem + "." + std::to_string(::getpid()) + ".csv"))
                  .string()} {
    fs::remove(path_);
    fs::remove(path_ + ".tmp");
  }
  ~ScratchCsv() {
    fs::remove(path_);
    fs::remove(path_ + ".tmp");
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

TEST(CsvWriterTest, FinalFileAppearsOnlyAtFlush) {
  ScratchCsv scratch{"blam_test_csv_atomic"};
  CsvWriter writer{scratch.path(), {"a", "b"}};
  writer.row({"1", "2"});
  // Mid-write: only the staging file exists.
  EXPECT_FALSE(fs::exists(scratch.path()));
  EXPECT_TRUE(fs::exists(scratch.path() + ".tmp"));

  writer.flush();
  EXPECT_TRUE(fs::exists(scratch.path()));
  EXPECT_FALSE(fs::exists(scratch.path() + ".tmp"));
  EXPECT_EQ(slurp(scratch.path()), "a,b\n1,2\n");

  writer.flush();  // idempotent
  EXPECT_EQ(slurp(scratch.path()), "a,b\n1,2\n");
}

TEST(CsvWriterTest, RowAfterFlushThrows) {
  ScratchCsv scratch{"blam_test_csv_sealed"};
  CsvWriter writer{scratch.path(), {"a"}};
  writer.flush();
  EXPECT_THROW(writer.row({"1"}), std::logic_error);
}

TEST(CsvWriterTest, RowWidthMustMatchHeader) {
  ScratchCsv scratch{"blam_test_csv_width"};
  CsvWriter writer{scratch.path(), {"a", "b"}};
  EXPECT_THROW(writer.row({"only-one"}), std::invalid_argument);
  writer.row({"1", "2"});
  writer.flush();
}

TEST(CsvWriterTest, ExceptionUnwindLeavesNoPartialFile) {
  ScratchCsv scratch{"blam_test_csv_unwind"};
  try {
    CsvWriter writer{scratch.path(), {"a"}};
    writer.row({"1"});
    throw std::runtime_error{"producer failed mid-figure"};
  } catch (const std::runtime_error&) {
  }
  // No truncated CSV where a complete one is expected, and no debris.
  EXPECT_FALSE(fs::exists(scratch.path()));
  EXPECT_FALSE(fs::exists(scratch.path() + ".tmp"));
}

TEST(CsvWriterTest, QuotingFollowsRfc4180) {
  ScratchCsv scratch{"blam_test_csv_quote"};
  CsvWriter writer{scratch.path(), {"x"}};
  writer.row({CsvWriter::cell(std::string_view{"hello, \"world\"\nbye"})});
  writer.flush();
  EXPECT_EQ(slurp(scratch.path()), "x\n\"hello, \"\"world\"\"\nbye\"\n");
}

TEST(CsvWriterTest, DoubleCellsRoundTrip) {
  EXPECT_EQ(CsvWriter::cell(static_cast<std::int64_t>(-42)), "-42");
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(CsvWriter::cell(v)), v);
}

#ifdef NDEBUG
// The destructor-without-flush path aborts in debug builds (assert), so the
// release-only test documents the salvage behavior: warn, drop the temp
// file, leave no final file.
TEST(CsvWriterTest, DestructorWithoutFlushLeavesNoFinalFile) {
  ScratchCsv scratch{"blam_test_csv_noflush"};
  {
    CsvWriter writer{scratch.path(), {"a"}};
    writer.row({"1"});
  }  // destroyed uncommitted: stderr warning, temp removed
  EXPECT_FALSE(fs::exists(scratch.path()));
  EXPECT_FALSE(fs::exists(scratch.path() + ".tmp"));
}
#endif

}  // namespace
}  // namespace blam
