// Tests for blam-lint — tokenizer behaviour, each rule's true positives and the
// strings/comments that must NOT match, and the suppression engine. These
// fixtures are also the CI demonstration that a seeded violation fails the
// lint gate (lint_source returns an unsuppressed finding => blam-lint exits
// nonzero).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "blam-lint/lint.hpp"

namespace blam::lint {
namespace {

[[nodiscard]] std::vector<Finding> active(const std::string& path, std::string_view src) {
  std::vector<Finding> out;
  for (auto& f : lint_source(path, src)) {
    if (!f.suppressed) out.push_back(std::move(f));
  }
  return out;
}

[[nodiscard]] int count_rule(const std::vector<Finding>& findings, std::string_view rule) {
  return static_cast<int>(std::count_if(findings.begin(), findings.end(),
                                        [rule](const Finding& f) { return f.rule == rule; }));
}

// --- Tokenizer -------------------------------------------------------------

TEST(LintTokenizer, StringAndCommentContentsProduceNoIdentifiers) {
  const auto ts = tokenize(
      "// mt19937 in a comment\n"
      "/* rand() in a block */\n"
      "const char* s = \"std::mt19937 rand()\";\n");
  for (const Token& t : ts.tokens) {
    EXPECT_NE(t.text, "mt19937") << "line " << t.line;
    EXPECT_NE(t.text, "rand") << "line " << t.line;
  }
  EXPECT_EQ(ts.comments.size(), 2u);
}

TEST(LintTokenizer, RawStringsAreSingleTokens) {
  const auto ts = tokenize("auto s = R\"(std::unordered_map rand() \" )\";\nint after = 1;");
  ASSERT_FALSE(ts.tokens.empty());
  for (const Token& t : ts.tokens) EXPECT_NE(t.text, "unordered_map");
  // The token after the raw string is still seen (the delimiter scan ended).
  EXPECT_TRUE(std::any_of(ts.tokens.begin(), ts.tokens.end(),
                          [](const Token& t) { return t.text == "after"; }));
}

TEST(LintTokenizer, DigitSeparatorsDoNotOpenCharLiterals) {
  // If 1'000'000 opened a char literal, `rand` would be swallowed.
  const auto findings = active("src/x.cpp", "int big = 1'000'000; int r = rand();");
  EXPECT_EQ(count_rule(findings, "D1"), 1);
}

TEST(LintTokenizer, PreprocessorDirectivesAreSkipped) {
  const auto ts = tokenize(
      "#include <unordered_map>\n"
      "#define BAD rand() \\\n"
      "            mt19937\n"
      "int live = 1;\n");
  for (const Token& t : ts.tokens) {
    EXPECT_NE(t.text, "unordered_map");
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "mt19937");
  }
  EXPECT_TRUE(std::any_of(ts.tokens.begin(), ts.tokens.end(),
                          [](const Token& t) { return t.text == "live"; }));
}

TEST(LintTokenizer, ScopeResolutionIsOneToken) {
  const auto ts = tokenize("std::function<void()> f; for (auto x : xs) {}");
  EXPECT_TRUE(std::any_of(ts.tokens.begin(), ts.tokens.end(),
                          [](const Token& t) { return t.text == "::"; }));
  // The range-for colon stays a lone ':'.
  EXPECT_TRUE(std::any_of(ts.tokens.begin(), ts.tokens.end(), [](const Token& t) {
    return t.kind == TokKind::kPunct && t.text == ":";
  }));
}

// --- D1: nondeterminism APIs ----------------------------------------------

TEST(LintD1, FlagsEnginesEntropyAndWallClock) {
  const auto findings = active("src/x.cpp",
                               "std::mt19937 gen(std::random_device{}());\n"
                               "auto t = std::chrono::system_clock::now();\n");
  EXPECT_EQ(count_rule(findings, "D1"), 3);  // mt19937, random_device, system_clock
}

TEST(LintD1, FlagsRandSrandAndTimeSeeds) {
  const auto findings = active("src/x.cpp",
                               "srand(time(nullptr));\n"
                               "int a = rand();\n"
                               "long b = time(0);\n");
  EXPECT_EQ(count_rule(findings, "D1"), 4);  // srand, time(nullptr), rand, time(0)
}

TEST(LintD1, PlainTimeCallAndSteadyClockAreAllowed) {
  const auto findings = active("src/x.cpp",
                               "auto wall = std::chrono::steady_clock::now();\n"
                               "double t = time(sim);\n"  // not a wall-clock seed
                               "int rand = 3; use(rand);\n");  // a name, not a call
  EXPECT_TRUE(findings.empty());
}

TEST(LintD1, RngAuthorityFilesAreExempt) {
  const std::string src = "std::mt19937 reference_engine; int r = rand();";
  EXPECT_TRUE(active("src/common/rng.cpp", src).empty());
  EXPECT_EQ(count_rule(active("src/common/stats.cpp", src), "D1"), 2);
}

// --- D2: unordered containers ---------------------------------------------

TEST(LintD2, FlagsUnorderedDeclarationAsLatentHazard) {
  const auto findings =
      active("src/core/x.hpp", "std::unordered_map<int, double> totals_;");
  EXPECT_EQ(count_rule(findings, "D2"), 1);
}

TEST(LintD2, FlagsRangeForOverUnorderedName) {
  const auto findings = active("src/core/x.cpp",
                               "std::unordered_map<int, double> totals;\n"
                               "void dump() { for (const auto& [k, v] : totals) emit(k, v); }\n");
  EXPECT_EQ(count_rule(findings, "D2"), 2);  // declaration + iteration
}

TEST(LintD2, SortedContainersAndTestFilesAreExempt) {
  EXPECT_TRUE(active("src/core/x.cpp", "std::map<int, double> totals;").empty());
  EXPECT_TRUE(
      active("tests/test_x.cpp", "std::unordered_map<int, int> fixture;").empty());
}

// --- U1: unit-suffixed raw doubles in public headers ----------------------

TEST(LintU1, FlagsRawDoubleTimeParameterInHeader) {
  const auto findings = active("src/net/x.hpp", "void wait(double timeout_s);");
  ASSERT_EQ(count_rule(findings, "U1"), 1);
  EXPECT_NE(findings[0].message.find("blam::Time"), std::string::npos);
}

TEST(LintU1, MapsEachSuffixToItsStrongType) {
  const auto findings = active(
      "src/net/x.hpp", "void f(double budget_j, float draw_w = 1.0, double initial_soc);");
  EXPECT_EQ(count_rule(findings, "U1"), 3);
}

TEST(LintU1, IgnoresFieldsImplementationFilesAndUnsuffixedParams) {
  // Struct fields are CSV staging rows, not API boundaries.
  EXPECT_TRUE(active("src/net/x.hpp", "struct Row { double mean_latency_s{0.0}; };").empty());
  // Implementation files may carry raw doubles internally.
  EXPECT_TRUE(active("src/net/x.cpp", "void wait(double timeout_s);").empty());
  // Unsuffixed names and non-src headers are out of scope.
  EXPECT_TRUE(active("src/net/x.hpp", "void f(double ratio, double snr_db);").empty());
  EXPECT_TRUE(active("bench/x.hpp", "void wait(double timeout_s);").empty());
}

// --- H1: hot-path allocation guards ---------------------------------------

TEST(LintH1, FlagsStdFunctionAndNodeContainersInHotPath) {
  const auto findings = active("src/sim/simulator.hpp",
                               "std::function<void()> cb;\n"
                               "std::map<int, int> lookup;\n"
                               "std::deque<int> fifo;\n");
  EXPECT_EQ(count_rule(findings, "H1"), 3);
}

TEST(LintH1, FlagsPlainNewAndDelete) {
  const auto findings = active("src/sim/event_queue.cpp",
                               "int* p = new int[4];\n"
                               "delete p;\n");
  EXPECT_EQ(count_rule(findings, "H1"), 2);
}

TEST(LintH1, PlacementNewDeletedFunctionsAndVectorAreAllowed) {
  const auto findings = active("src/sim/inline_callback.hpp",
                               "::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));\n"
                               "InlineCallback(const InlineCallback&) = delete;\n"
                               "std::vector<Slot> slots_;\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintH1, NonHotPathSimFilesAreExempt) {
  // sweep_runner/campaign are per-cell orchestration, not per-event code.
  EXPECT_TRUE(active("src/sim/sweep_runner.hpp", "std::function<void()> body;").empty());
}

TEST(LintH1, Pr7IngestFilesAreHotPath) {
  // The million-node ingest path (PR 7) is under the same allocation guards
  // as the event loop.
  EXPECT_EQ(count_rule(active("src/core/span_arena.hpp", "int* p = new int[4];"), "H1"), 1);
  EXPECT_EQ(count_rule(active("src/core/ledger_store.hpp", "std::map<int, int> m;"), "H1"), 1);
  EXPECT_EQ(count_rule(active("src/core/ledger_store.cpp", "std::function<void()> f;"), "H1"), 1);
  EXPECT_EQ(
      count_rule(active("src/core/soc_ingest_queue.hpp", "std::shared_ptr<int> sp;"), "H1"), 1);
  // The service itself stays per-report policy code, not per-sample inner
  // loops; it is deliberately not listed.
  EXPECT_TRUE(active("src/core/degradation_service.cpp", "std::function<void()> f;").empty());
}

TEST(LintH1, ShardEngineUsesNarrowerBannedSet) {
  // The PR-8 shard engine keeps the per-event bans (std::function, node
  // containers, plain new/delete) but may own its shards through smart
  // pointers — construction happens once per run, not per event.
  EXPECT_EQ(count_rule(active("src/sim/shard_engine.cpp", "std::function<void()> f;"), "H1"), 1);
  EXPECT_EQ(count_rule(active("src/sim/shard_engine.hpp", "std::map<int, int> m;"), "H1"), 1);
  EXPECT_EQ(count_rule(active("src/sim/shard_engine.cpp", "int* p = new int[4];"), "H1"), 1);
  EXPECT_TRUE(active("src/sim/shard_engine.cpp",
                     "auto s = std::make_unique<int>(1);\n"
                     "std::shared_ptr<int> t = std::make_shared<int>(2);\n")
                  .empty());
}

// --- C1: CsvWriter must flush ---------------------------------------------

TEST(LintC1, FlagsWriterThatNeverFlushes) {
  const auto findings = active("bench/fig_x.cpp",
                               "CsvWriter csv{path, header};\n"
                               "for (auto& r : rows) csv.row(r);\n");
  ASSERT_EQ(count_rule(findings, "C1"), 1);
  EXPECT_NE(findings[0].message.find("csv"), std::string::npos);
}

TEST(LintC1, FlushedWriterAndNonConstructionUsesAreClean) {
  EXPECT_TRUE(active("bench/fig_x.cpp",
                     "CsvWriter csv{path, header};\n"
                     "csv.row(r);\n"
                     "csv.flush();\n")
                  .empty());
  // Member definitions and class declarations are not constructions.
  EXPECT_TRUE(active("src/common/csv.cpp", "CsvWriter::CsvWriter(...) {}").empty());
  EXPECT_TRUE(active("src/common/csv.hpp", "class CsvWriter { CsvWriter(); };").empty());
}

// --- W1 ---------------------------------------------------------------------

TEST(LintW1, FlagsCodeLinesOverOneHundredColumnsButNotAnnotations) {
  const std::string wide(101, 'x');
  const std::string fits(100, 'x');
  const auto findings = active("tests/x.cpp", fits + "\n" + wide + "\n");
  ASSERT_EQ(count_rule(findings, "W1"), 1);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[0].col, 101);
  // Columns are code points: 100 two-byte characters fit.
  std::string accented;
  for (int i = 0; i < 100; ++i) accented += "\xc3\xa9";
  EXPECT_TRUE(active("src/x.cpp", "// " + accented.substr(6) + "\n").empty());
  // A line that carries an annotation comment is exempt whatever its width,
  // and so is the line an own-line W1 suppression covers.
  for (const char* pragma : {"blam-ckpt: skip -- ", "blam-shared: ", "blam-lint: allow(D1) -- "}) {
    EXPECT_TRUE(active("src/x.cpp", "int v;  // " + std::string{pragma} + wide + "\n").empty())
        << pragma;
  }
  EXPECT_TRUE(active("src/x.cpp", "// blam-lint: allow(W1) -- fixture\n" + wide + "\n").empty());
  // Pragma text inside a string literal is code, not an annotation.
  EXPECT_EQ(count_rule(active("src/x.cpp", "auto s = \"blam-ckpt: " + wide + "\";\n"), "W1"), 1);
}

// --- Suppressions ----------------------------------------------------------

TEST(LintSuppression, TrailingCommentCoversItsLineAndRecordsReason) {
  const auto all = lint_source("src/x.cpp",
                               "int r = rand();  // blam-lint: allow(D1) -- fixture for the "
                               "suppression test\n");
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0].suppressed);
  EXPECT_EQ(all[0].suppress_reason, "fixture for the suppression test");
  EXPECT_TRUE(active("src/x.cpp", "int r = rand();  // blam-lint: allow(D1) -- fixture\n").empty());
}

TEST(LintSuppression, OwnLineCommentCoversTheNextLine) {
  EXPECT_TRUE(active("src/x.cpp",
                     "// blam-lint: allow(D1) -- fixture\n"
                     "int r = rand();\n")
                  .empty());
  // ... but not the line after that.
  const auto findings = active("src/x.cpp",
                               "// blam-lint: allow(D1) -- fixture\n"
                               "int a = 0;\n"
                               "int r = rand();\n");
  EXPECT_EQ(count_rule(findings, "D1"), 1);
}

TEST(LintSuppression, DoesNotCoverOtherRules) {
  const auto findings = active("src/x.cpp",
                               "// blam-lint: allow(D2) -- wrong rule on purpose\n"
                               "int r = rand();\n");
  EXPECT_EQ(count_rule(findings, "D1"), 1);
}

TEST(LintSuppression, CommaListCoversSeveralRules) {
  EXPECT_TRUE(active("src/sim/simulator.hpp",
                     "// blam-lint: allow(D1, H1) -- fixture\n"
                     "std::function<int()> f = [] { return rand(); };\n")
                  .empty());
}

TEST(LintSuppression, MissingReasonIsItselfAFinding) {
  const auto findings = active("src/x.cpp",
                               "// blam-lint: allow(D1)\n"
                               "int r = rand();\n");
  EXPECT_EQ(count_rule(findings, "S1"), 1);
  // The malformed suppression still suppresses nothing.
  EXPECT_EQ(count_rule(findings, "D1"), 1);
}

TEST(LintSuppression, UnknownRuleAndMalformedMarkerAreFindings) {
  EXPECT_EQ(count_rule(active("src/x.cpp", "// blam-lint: allow(Z9) -- no such rule\n"), "S1"), 1);
  EXPECT_EQ(count_rule(active("src/x.cpp", "// blam-lint: please ignore this\n"), "S1"), 1);
}

// --- End-to-end: the CI gate -----------------------------------------------

TEST(LintGate, SeededViolationProducesUnsuppressedFinding) {
  // This mirrors the CI lint leg: introducing a banned API anywhere in the
  // tree yields an active finding, and blam-lint's exit status turns red.
  const std::string seeded =
      "#include <random>\n"
      "double jitter() { static std::mt19937 g; return g() * 1e-9; }\n";
  const auto findings = active("src/net/gateway.cpp", seeded);
  ASSERT_EQ(count_rule(findings, "D1"), 1);
  EXPECT_FALSE(findings[0].suppressed);
}

TEST(LintGate, JsonOutputCarriesAllFields) {
  const auto findings = lint_source("src/x.cpp", "int r = rand();");
  const std::string json = to_json(findings);
  EXPECT_NE(json.find("\"rule\":\"D1\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"src/x.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\":false"), std::string::npos);
}

TEST(LintGate, RuleRegistryListsAllRules) {
  const auto& infos = rule_infos();
  ASSERT_EQ(infos.size(), 7u);
  for (const char* id : {"D1", "D2", "U1", "H1", "C1", "W1", "S1"}) {
    EXPECT_TRUE(std::any_of(infos.begin(), infos.end(),
                            [id](const RuleInfo& r) { return r.id == id; }))
        << id;
  }
}

}  // namespace
}  // namespace blam::lint
