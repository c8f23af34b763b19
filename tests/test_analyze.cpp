// Tests for blam-analyze — the structure pass (member tables, function
// definitions, statics, includes), the include-closure walk, each cross-file
// rule's true positives and the shapes that must NOT match, and the
// suppression protocol. The seeded-drift fixture doubles as the CI
// demonstration that checkpoint drift fails the gate: an extra unserialized
// member yields an active K1 finding, so blam-analyze exits nonzero.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "blam-analyze/analyze.hpp"

namespace blam::analyze {
namespace {

using lint::Finding;

[[nodiscard]] Project make_project(
    const std::vector<std::pair<std::string, std::string>>& files) {
  Project project;
  for (const auto& [path, src] : files) project.units.push_back(parse_unit(path, src));
  return project;
}

[[nodiscard]] std::vector<Finding> active(const Project& project) {
  std::vector<Finding> out;
  for (auto& f : analyze_project(project)) {
    if (!f.suppressed) out.push_back(std::move(f));
  }
  return out;
}

[[nodiscard]] int count_rule(const std::vector<Finding>& findings, std::string_view rule) {
  return static_cast<int>(std::count_if(findings.begin(), findings.end(),
                                        [rule](const Finding& f) { return f.rule == rule; }));
}

[[nodiscard]] bool mentions(const std::vector<Finding>& findings, std::string_view rule,
                            std::string_view needle) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.message.find(needle) != std::string::npos;
  });
}

[[nodiscard]] const ClassInfo* find_class(const TranslationUnit& unit, std::string_view name) {
  for (const ClassInfo& c : unit.classes) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

[[nodiscard]] const MemberDecl* find_member(const ClassInfo& cls, std::string_view name) {
  for (const MemberDecl& m : cls.members) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// --- Structure pass --------------------------------------------------------

TEST(AnalyzeStructure, MemberTablesCaptureTypesInitializersAndBitfields) {
  const auto unit = parse_unit("src/x.hpp",
                               "struct Frame {\n"
                               "  std::vector<double> samples{1.0, 2.0};\n"
                               "  std::map<std::string, int> index;\n"
                               "  std::uint8_t flags : 3;\n"
                               "  std::uint8_t spare : 5 {0};\n"
                               "  static int instances;\n"
                               "  const double scale = 2.0;\n"
                               "  int plain;\n"
                               "};\n");
  const ClassInfo* frame = find_class(unit, "Frame");
  ASSERT_NE(frame, nullptr);
  EXPECT_TRUE(frame->is_struct);

  const MemberDecl* samples = find_member(*frame, "samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_NE(samples->type.find("std::vector"), std::string::npos);

  // Template arguments with commas must not split the declaration.
  EXPECT_NE(find_member(*frame, "index"), nullptr);

  const MemberDecl* flags = find_member(*frame, "flags");
  ASSERT_NE(flags, nullptr);
  EXPECT_TRUE(flags->is_bitfield);
  const MemberDecl* spare = find_member(*frame, "spare");
  ASSERT_NE(spare, nullptr);
  EXPECT_TRUE(spare->is_bitfield);

  // Static data members are shared state, not per-instance checkpoint
  // state: they land in the S2 statics table, not the member table.
  EXPECT_EQ(find_member(*frame, "instances"), nullptr);
  ASSERT_EQ(unit.statics.size(), 1u);
  EXPECT_EQ(unit.statics[0].name, "instances");
  EXPECT_EQ(unit.statics[0].kind, StaticDecl::Kind::kClassStatic);

  const MemberDecl* scale = find_member(*frame, "scale");
  ASSERT_NE(scale, nullptr);
  EXPECT_TRUE(scale->is_const);

  EXPECT_NE(find_member(*frame, "plain"), nullptr);
}

TEST(AnalyzeStructure, NestedClassesAreKeyedThroughTheirParent) {
  const auto unit = parse_unit("src/x.hpp",
                               "class Rng {\n"
                               " public:\n"
                               "  struct State {\n"
                               "    std::uint64_t s0{0};\n"
                               "  };\n"
                               " private:\n"
                               "  State state_;\n"
                               "};\n");
  const ClassInfo* nested = find_class(unit, "Rng::State");
  ASSERT_NE(nested, nullptr);
  EXPECT_NE(find_member(*nested, "s0"), nullptr);
  const ClassInfo* outer = find_class(unit, "Rng");
  ASSERT_NE(outer, nullptr);
  EXPECT_NE(find_member(*outer, "state_"), nullptr);
}

TEST(AnalyzeStructure, AlignedClassesAreClassesNotVariables) {
  // `alignas(...)` in a class head is a specifier, like an attribute: the
  // class still parses as one, and is no namespace-scope variable.
  const auto unit = parse_unit("src/x.hpp",
                               "class alignas(64) Node {\n"
                               "  alignas(8) int id_;\n"
                               "};\n"
                               "struct [[nodiscard]] alignas(2 * 8) Pair {\n"
                               "  int first;\n"
                               "};\n");
  const ClassInfo* node = find_class(unit, "Node");
  ASSERT_NE(node, nullptr);
  EXPECT_NE(find_member(*node, "id_"), nullptr);
  const ClassInfo* pair = find_class(unit, "Pair");
  ASSERT_NE(pair, nullptr);
  EXPECT_NE(find_member(*pair, "first"), nullptr);
  EXPECT_TRUE(unit.statics.empty());
}

TEST(AnalyzeStructure, TemplateClassMembersAreCaptured) {
  const auto unit = parse_unit("src/x.hpp",
                               "template <typename T>\n"
                               "struct Box {\n"
                               "  T value;\n"
                               "  int count{0};\n"
                               "};\n");
  const ClassInfo* box = find_class(unit, "Box");
  ASSERT_NE(box, nullptr);
  EXPECT_NE(find_member(*box, "value"), nullptr);
  EXPECT_NE(find_member(*box, "count"), nullptr);
}

TEST(AnalyzeStructure, TemplateHeadersNameTheirParameters) {
  const TranslationUnit unit =
      parse_unit("src/a.hpp",
                 "template <typename T, std::size_t N = sizeof(T), class = void>\n"
                 "void fill(T& t) {}\n"
                 "template <typename U> using Vec = std::vector<U>;\n"
                 "void plain(int x) {}\n");
  ASSERT_EQ(unit.functions.size(), 2u);
  EXPECT_EQ(unit.functions[0].template_params, (std::vector<std::string>{"T", "N"}));
  // An alias template's names end with the alias.
  EXPECT_TRUE(unit.functions[1].template_params.empty());
}

TEST(AnalyzeStructure, InlineAndOutOfClassFunctionDefinitionsAreRecorded) {
  const auto unit = parse_unit("src/x.cpp",
                               "struct Counter {\n"
                               "  int value() const { return value_; }\n"
                               "  void bump();\n"
                               "  int value_{0};\n"
                               "};\n"
                               "void Counter::bump() { ++value_; }\n"
                               "int free_fn(int a) { return a + 1; }\n");
  ASSERT_EQ(unit.functions.size(), 3u);
  EXPECT_EQ(unit.functions[0].class_name, "Counter");
  EXPECT_EQ(unit.functions[0].name, "value");
  EXPECT_EQ(unit.functions[1].class_name, "Counter");
  EXPECT_EQ(unit.functions[1].name, "bump");
  EXPECT_EQ(unit.functions[2].class_name, "");
  EXPECT_EQ(unit.functions[2].name, "free_fn");
  ASSERT_EQ(unit.functions[2].params.size(), 1u);
  EXPECT_EQ(unit.functions[2].params[0].name, "a");
}

TEST(AnalyzeStructure, ForwardDeclarationsAreNotStatics) {
  const auto unit = parse_unit("src/x.hpp",
                               "class NetworkServer;\n"
                               "struct EngineSlice;\n"
                               "int real_global = 0;\n");
  ASSERT_EQ(unit.statics.size(), 1u);
  EXPECT_EQ(unit.statics[0].name, "real_global");
}

TEST(AnalyzeStructure, CkptSkipBindsTrailingAndOwnLine) {
  const auto unit = parse_unit("src/x.hpp",
                               "struct S {\n"
                               "  int a;  // blam-ckpt: skip -- rebuilt on restore\n"
                               "  // blam-ckpt: skip -- derived constant\n"
                               "  int b;\n"
                               "  int c;\n"
                               "};\n");
  const ClassInfo* s = find_class(unit, "S");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(find_member(*s, "a")->ckpt_skip);
  EXPECT_TRUE(find_member(*s, "b")->ckpt_skip);
  EXPECT_EQ(find_member(*s, "b")->ckpt_reason, "derived constant");
  EXPECT_FALSE(find_member(*s, "c")->ckpt_skip);
}

// --- Include closure -------------------------------------------------------

TEST(AnalyzeClosure, FollowsQuotedIncludesAndPairsHeadersWithCpp) {
  const auto project = make_project({
      {"src/sim/shard_engine.cpp", "#include \"sim/shard_state.hpp\"\n"},
      {"src/sim/shard_state.hpp", "#include \"net/table.hpp\"\n"},
      {"src/sim/shard_state.cpp", "#include \"sim/shard_state.hpp\"\n"},
      {"src/net/table.hpp", "struct Table {};\n"},
      {"src/net/unrelated.hpp", "struct Unrelated {};\n"},
  });
  const auto closure = include_closure(project, "src/sim/shard_engine.cpp");
  const std::vector<std::string> expected = {
      "src/net/table.hpp",
      "src/sim/shard_engine.cpp",
      "src/sim/shard_state.cpp",  // paired in via its header, not #included
      "src/sim/shard_state.hpp",
  };
  EXPECT_EQ(closure, expected);
}

// --- K1: checkpoint coverage -----------------------------------------------

constexpr const char* kEnginePath = "src/sim/engine.hpp";

// An engine whose member pair serializes `soc_` but forgets `drift_` — the
// seeded-drift fixture. With `drift_` removed (or skipped) it is clean.
[[nodiscard]] std::string engine_src(bool with_drift) {
  std::string src =
      "struct Engine {\n"
      "  void checkpoint_state(StateWriter& w) { w.put_double(soc_); }\n"
      "  void restore_state(StateReader& r) { soc_ = r.get_double(); }\n"
      "  double soc_{1.0};\n";
  if (with_drift) src += "  double drift_{0.0};\n";
  src += "};\n";
  return src;
}

TEST(AnalyzeK1, SeededCheckpointDriftFailsTheGate) {
  // The extra member drifts out of checkpoint coverage => an active K1
  // finding => blam-analyze exits nonzero. This is the gate demonstration.
  const auto findings = active(make_project({{kEnginePath, engine_src(true)}}));
  EXPECT_EQ(count_rule(findings, "K1"), 1);
  EXPECT_TRUE(mentions(findings, "K1", "Engine::drift_"));
}

TEST(AnalyzeK1, FullySerializedRootIsClean) {
  const auto findings = active(make_project({{kEnginePath, engine_src(false)}}));
  EXPECT_EQ(count_rule(findings, "K1"), 0);
}

TEST(AnalyzeK1, SkipAnnotationExemptsAMember) {
  const auto findings = active(make_project({{kEnginePath,
                                              "struct Engine {\n"
                                              "  void checkpoint_state(StateWriter& w) {}\n"
                                              "  void restore_state(StateReader& r) {}\n"
                                              "  // blam-ckpt: skip -- rebuilt at construction\n"
                                              "  double cache_{0.0};\n"
                                              "};\n"}}));
  EXPECT_EQ(count_rule(findings, "K1"), 0);
}

TEST(AnalyzeK1, AccessChainsPullMemberTypesIntoTheGroup) {
  // checkpoint_state touches inner_.value_, so Inner joins the group and its
  // OTHER member is checkpoint drift.
  const auto findings = active(make_project({{kEnginePath,
                                              "struct Inner {\n"
                                              "  double value_{0.0};\n"
                                              "  double missed_{0.0};\n"
                                              "};\n"
                                              "struct Engine {\n"
                                              "  void checkpoint_state(StateWriter& w) {\n"
                                              "    w.put_double(inner_.value_);\n"
                                              "  }\n"
                                              "  void restore_state(StateReader& r) {\n"
                                              "    inner_.value_ = r.get_double();\n"
                                              "  }\n"
                                              "  Inner inner_;\n"
                                              "};\n"}}));
  EXPECT_EQ(count_rule(findings, "K1"), 1);
  EXPECT_TRUE(mentions(findings, "K1", "Inner::missed_"));
}

TEST(AnalyzeK1, MemberFunctionCallsAttachTheCalleeBody) {
  // Coverage flows through helper calls: queue_.seq() is the only mention of
  // Queue::seq_, inside Queue's own accessor body.
  const auto findings = active(make_project({{kEnginePath,
                                              "struct Queue {\n"
                                              "  std::uint64_t seq() const { return seq_; }\n"
                                              "  void set_seq(std::uint64_t s) { seq_ = s; }\n"
                                              "  std::uint64_t seq_{0};\n"
                                              "};\n"
                                              "struct Engine {\n"
                                              "  void checkpoint_state(StateWriter& w) {\n"
                                              "    w.put_u64(queue_.seq());\n"
                                              "  }\n"
                                              "  void restore_state(StateReader& r) {\n"
                                              "    queue_.set_seq(r.get_u64());\n"
                                              "  }\n"
                                              "  Queue queue_;\n"
                                              "};\n"}}));
  EXPECT_EQ(count_rule(findings, "K1"), 0);
}

TEST(AnalyzeK1, UnqualifiedMembersBindToTheEnclosingClass) {
  // Decoy (alphabetically first in the group) shares the member name `q_`.
  // Holder::get's unqualified `q_` must still bind to Holder::q_ (a Payload),
  // attaching Payload::x() — the only body covering Payload::x_. Binding to
  // Decoy::q_ (an int) would kill the chain and flag x_ as drift.
  const auto findings = active(make_project({{kEnginePath,
                                              "struct Payload {\n"
                                              "  int x() const { return x_; }\n"
                                              "  int x_{0};\n"
                                              "};\n"
                                              "struct Decoy {\n"
                                              "  int q_{0};\n"
                                              "};\n"
                                              "struct Holder {\n"
                                              "  int get() const { return q_.x(); }\n"
                                              "  Payload q_;\n"
                                              "};\n"
                                              "struct Engine {\n"
                                              "  void checkpoint_state(StateWriter& w) {\n"
                                              "    w.put(d_.q_);\n"
                                              "    w.put(h_.get());\n"
                                              "    w.put(h_.q_.x());\n"
                                              "  }\n"
                                              "  void restore_state(StateReader& r) {}\n"
                                              "  Decoy d_;\n"
                                              "  Holder h_;\n"
                                              "};\n"}}));
  EXPECT_EQ(count_rule(findings, "K1"), 0);
}

TEST(AnalyzeK1, SkippedMemberChainsAreOpaque) {
  // Reading config_->beta during a restore-rebuild must not pull the whole
  // config type into checkpoint coverage: config_ is declared out of
  // coverage, so the chain through it is opaque and Config stays out.
  const auto findings = active(make_project({{kEnginePath,
                                              "struct Config {\n"
                                              "  double beta{0.5};\n"
                                              "  double gamma{0.1};\n"
                                              "};\n"
                                              "struct Engine {\n"
                                              "  void checkpoint_state(StateWriter& w) {\n"
                                              "    w.put_double(soc_);\n"
                                              "  }\n"
                                              "  void restore_state(StateReader& r) {\n"
                                              "    soc_ = r.get_double() * config_->beta;\n"
                                              "  }\n"
                                              "  double soc_{1.0};\n"
                                              "  // blam-ckpt: skip -- construction input\n"
                                              "  const Config* config_{nullptr};\n"
                                              "};\n"}}));
  EXPECT_EQ(count_rule(findings, "K1"), 0);
}

TEST(AnalyzeK1, FreeSerializerSubjectsAreRoots) {
  // write_tracker-style free functions: the non-codec parameter's type is
  // a serialized subject even without a member pair.
  const auto findings = active(make_project({{"src/core/codec.cpp",
                                              "struct Ledger {\n"
                                              "  double k6_{0.0};\n"
                                              "  double unsaved_{0.0};\n"
                                              "};\n"
                                              "void write_ledger(StateWriter& w, const Ledger& "
                                              "ledger) {\n"
                                              "  w.put_double(ledger.k6_);\n"
                                              "}\n"}}));
  EXPECT_EQ(count_rule(findings, "K1"), 1);
  EXPECT_TRUE(mentions(findings, "K1", "Ledger::unsaved_"));
}

TEST(AnalyzeK1, TemplateParametersOfFreeSerializersAreNotClasses) {
  // `const Row&` in a templated codec helper names the helper's own template
  // parameter, not the unrelated `struct Row` beside it: no group roots Row.
  // The same helper without its template header does root it, and Row's
  // unmentioned member is then drift.
  const std::string row = "struct Row {\n  int window{0};\n};\n";
  const std::string helper =
      "void write_row(StateWriter& w, const Row& row) {\n"
      "  w.put_u64(row.size());\n"
      "}\n";
  const Project templated =
      make_project({{"src/sim/codec.hpp", row + "template <typename Row>\n" + helper}});
  ASSERT_EQ(templated.units[0].functions.size(), 1u);
  EXPECT_EQ(templated.units[0].functions[0].template_params, std::vector<std::string>{"Row"});
  EXPECT_EQ(count_rule(active(templated), "K1"), 0);

  const auto plain = active(make_project({{"src/sim/codec.hpp", row + helper}}));
  EXPECT_EQ(count_rule(plain, "K1"), 1);
  EXPECT_TRUE(mentions(plain, "K1", "Row::window"));
}

TEST(AnalyzeK1, DerivedOverridesJoinTheGroupOnVirtualDispatch) {
  // mac_->snapshot() dispatches to the derived override; the derived class's
  // unserialized member is drift even though only the base is named.
  const auto findings = active(make_project({{kEnginePath,
                                              "struct MacPolicy {\n"
                                              "  virtual ~MacPolicy() = default;\n"
                                              "  virtual double snapshot() const = 0;\n"
                                              "};\n"
                                              "struct GreedyMac : MacPolicy {\n"
                                              "  double snapshot() const override {\n"
                                              "    return cap_;\n"
                                              "  }\n"
                                              "  double cap_{0.0};\n"
                                              "  double forgotten_{0.0};\n"
                                              "};\n"
                                              "struct Engine {\n"
                                              "  void checkpoint_state(StateWriter& w) {\n"
                                              "    w.put_double(mac_->snapshot());\n"
                                              "  }\n"
                                              "  void restore_state(StateReader& r) {}\n"
                                              "  std::unique_ptr<MacPolicy> mac_;\n"
                                              "};\n"}}));
  EXPECT_EQ(count_rule(findings, "K1"), 1);
  EXPECT_TRUE(mentions(findings, "K1", "GreedyMac::forgotten_"));
}

TEST(AnalyzeK1, UnreachableTypesAreNotAudited) {
  const auto findings = active(make_project({{kEnginePath,
                                              "struct Standalone {\n"
                                              "  int never_serialized_{0};\n"
                                              "};\n"
                                              "struct Engine {\n"
                                              "  void checkpoint_state(StateWriter& w) {}\n"
                                              "  void restore_state(StateReader& r) {}\n"
                                              "};\n"}}));
  EXPECT_EQ(count_rule(findings, "K1"), 0);
}

// --- S2: shard-state escape ------------------------------------------------

[[nodiscard]] Project shard_project(const std::string& header_src) {
  return make_project({
      {"src/sim/shard_engine.cpp", "#include \"sim/shard_state.hpp\"\n"},
      {"src/sim/shard_state.hpp", header_src},
  });
}

TEST(AnalyzeS2, FlagsMutableStaticsInTheShardClosure) {
  const auto findings = active(shard_project("int g_total = 0;\n"
                                             "static int s_hits = 0;\n"
                                             "int bump() {\n"
                                             "  static int calls = 0;\n"
                                             "  return ++calls;\n"
                                             "}\n"));
  EXPECT_EQ(count_rule(findings, "S2"), 3);
  EXPECT_TRUE(mentions(findings, "S2", "'g_total'"));
  EXPECT_TRUE(mentions(findings, "S2", "'s_hits'"));
  EXPECT_TRUE(mentions(findings, "S2", "'calls'"));
}

TEST(AnalyzeS2, ConstAtomicAndAnnotatedAreExempt) {
  const auto findings = active(
      shard_project("constexpr int kShards = 4;\n"
                    "const double kBudget = 1.5;\n"
                    "std::atomic<std::uint64_t> g_progress{0};\n"
                    "// blam-shared: mutex -- merged under the epoch barrier lock\n"
                    "std::vector<int> g_merged;\n"));
  EXPECT_EQ(count_rule(findings, "S2"), 0);
}

TEST(AnalyzeS2, ThreadLocalIsStillFlagged) {
  // One worker thread serves many shards, so thread_local does not isolate
  // shard state.
  const auto findings = active(shard_project("thread_local int t_scratch = 0;\n"));
  EXPECT_EQ(count_rule(findings, "S2"), 1);
  EXPECT_TRUE(mentions(findings, "S2", "thread_local is not enough"));
}

TEST(AnalyzeS2, FilesOutsideTheClosureAreIgnored) {
  const auto project = make_project({
      {"src/sim/shard_engine.cpp", "#include \"sim/shard_state.hpp\"\n"},
      {"src/sim/shard_state.hpp", "struct ShardState {};\n"},
      {"src/plot/render.cpp", "int g_figure_count = 0;\n"},
  });
  EXPECT_EQ(count_rule(active(project), "S2"), 0);
}

TEST(AnalyzeS2, PairedCppOfAClosureHeaderIsScanned) {
  const auto project = make_project({
      {"src/sim/shard_engine.cpp", "#include \"sim/shard_state.hpp\"\n"},
      {"src/sim/shard_state.hpp", "int advance();\n"},
      {"src/sim/shard_state.cpp", "static int s_epoch = 0;\n"
                                  "int advance() { return ++s_epoch; }\n"},
  });
  const auto findings = active(project);
  EXPECT_EQ(count_rule(findings, "S2"), 1);
  EXPECT_TRUE(mentions(findings, "S2", "'s_epoch'"));
}

// --- R1: RNG-salt registry -------------------------------------------------

constexpr const char* kRegistry =
    "namespace salt {\n"
    "inline constexpr std::uint64_t kTopology = 0x7090;\n"
    "inline constexpr std::uint64_t kTraffic = 0x7aff1c;\n"
    "}  // namespace salt\n";

TEST(AnalyzeR1, LiteralForkSaltsAreFlagged) {
  const auto findings = active(make_project({
      {"src/common/rng.hpp", kRegistry},
      {"src/net/deploy.cpp", "void f(const Rng& root) {\n"
                             "  const Rng a = root.fork(0x7090);\n"
                             "  const Rng b = root.fork(0xbeef);\n"
                             "  const Rng c = root.fork(salt::kTraffic);\n"
                             "}\n"},
  }));
  EXPECT_EQ(count_rule(findings, "R1"), 2);
  // A registered value names its constant; an unregistered one asks for a
  // registry entry.
  EXPECT_TRUE(mentions(findings, "R1", "salt::kTopology"));
  EXPECT_TRUE(mentions(findings, "R1", "unregistered literal salt 0xbeef"));
}

TEST(AnalyzeR1, LiteralStreamArgumentsOfConstructionsAreFlagged) {
  const auto findings = active(make_project({
      {"src/common/rng.hpp", kRegistry},
      {"src/net/build.cpp", "void f(std::uint64_t seed) {\n"
                            "  const Rng root{seed, 0};\n"
                            "  Rng named{seed, salt::kTopology};\n"
                            "}\n"},
  }));
  EXPECT_EQ(count_rule(findings, "R1"), 1);
  EXPECT_TRUE(mentions(findings, "R1", "Rng{seed, stream} construction"));
}

TEST(AnalyzeR1, DuplicateRegistryValuesCollide) {
  const auto findings = active(make_project({
      {"src/common/rng.hpp", "namespace salt {\n"
                             "inline constexpr std::uint64_t kA = 0x7090;\n"
                             "inline constexpr std::uint64_t kB = 0x7090;\n"
                             "}  // namespace salt\n"},
  }));
  EXPECT_EQ(count_rule(findings, "R1"), 1);
  EXPECT_TRUE(mentions(findings, "R1", "duplicate salt value"));
}

TEST(AnalyzeR1, HexRespellingOfARegisteredSaltIsFlagged) {
  const auto findings = active(make_project({
      {"src/common/rng.hpp", kRegistry},
      {"src/net/build.cpp", "constexpr std::uint64_t kLocal = 0x007090;\n"},
  }));
  EXPECT_EQ(count_rule(findings, "R1"), 1);
  EXPECT_TRUE(mentions(findings, "R1", "respells registered salt"));
}

TEST(AnalyzeR1, SmallByteMasksAreNotRespellings) {
  // 0x00/0xff-style masks are everywhere; only values >= 0x100 can collide
  // with a salt in a way worth flagging.
  const auto findings = active(make_project({
      {"src/common/rng.hpp", "namespace salt {\n"
                             "inline constexpr std::uint64_t kRootStream = 0;\n"
                             "}  // namespace salt\n"},
      {"src/core/pack.cpp", "constexpr std::uint8_t kMask = 0x00;\n"},
  }));
  EXPECT_EQ(count_rule(findings, "R1"), 0);
}

TEST(AnalyzeR1, FilesOutsideSrcAreNotScanned) {
  const auto findings = active(make_project({
      {"src/common/rng.hpp", kRegistry},
      {"tests/test_rng.cpp", "void f(const Rng& root) { const Rng a = root.fork(0x7090); }\n"},
  }));
  EXPECT_EQ(count_rule(findings, "R1"), 0);
}

// --- N1: no consumer ---------------------------------------------------------

constexpr const char* kQueueHeader =
    "struct Queue {\n"
    "  Queue() = default;\n"
    "  void push(int v);\n"
    "  int depth() const;\n"
    "};\n";
constexpr const char* kQueueImpl =
    "#include \"q/queue.hpp\"\n"
    "void Queue::push(int v) { (void)v; }\n"
    "int Queue::depth() const { return 0; }\n";
constexpr const char* kQueueUser =
    "void feed(Queue& q) { q.push(1); }\n"
    "void drive() { Queue q; feed(q); }\n";

[[nodiscard]] Project queue_project(std::vector<std::pair<std::string, std::string>> extra) {
  std::vector<std::pair<std::string, std::string>> files = {
      {"src/q/queue.hpp", kQueueHeader},
      {"src/q/queue.cpp", kQueueImpl},
      {"src/q/user.cpp", kQueueUser},
      {"src/q/user.hpp", "void drive();\n"},
      {"examples/main.cpp", "int main() { drive(); }\n"},
  };
  files.insert(files.end(), extra.begin(), extra.end());
  return make_project(files);
}

TEST(AnalyzeN1, MethodCalledOnlyFromTestsIsTestOnlyApi) {
  const auto findings = active(queue_project(
      {{"tests/test_queue.cpp", "TEST(Q, D) { Queue q; EXPECT_EQ(q.depth(), 0); }\n"}}));
  EXPECT_EQ(count_rule(findings, "N1"), 1);
  EXPECT_TRUE(mentions(findings, "N1", "test-only API: Queue::depth"));
  EXPECT_TRUE(mentions(findings, "N1", "tests/test_queue.cpp"));
}

TEST(AnalyzeN1, MethodCalledFromBenchIsConsumed) {
  const auto findings = active(queue_project({
      {"tests/test_queue.cpp", "TEST(Q, D) { Queue q; EXPECT_EQ(q.depth(), 0); }\n"},
      {"bench/depth.cpp", "int probe(const Queue& q) { return q.depth(); }\n"},
  }));
  EXPECT_EQ(count_rule(findings, "N1"), 0);
}

TEST(AnalyzeN1, MethodWithNoCallerIsUnused) {
  // The declaration and the out-of-class definition are not uses; nor is
  // the library's own std::-qualified name.
  const auto findings =
      active(queue_project({{"src/q/sort.cpp", "void f(int* p) { std::depth(p); }\n"}}));
  EXPECT_EQ(count_rule(findings, "N1"), 1);
  EXPECT_TRUE(mentions(findings, "N1", "unused: Queue::depth"));
}

TEST(AnalyzeN1, OverrideCalledThroughABasePointerIsConsumed) {
  const auto findings = active(make_project({
      {"src/mac/policy.hpp",
       "struct Policy {\n"
       "  virtual ~Policy() = default;\n"
       "  virtual int pick() const = 0;\n"
       "};\n"
       "struct Greedy final : Policy {\n"
       "  int pick() const override { return 1; }\n"
       "};\n"},
      {"src/mac/run.cpp",
       "int choose(const Policy& p) { return p.pick(); }\n"
       "int greedy() { return choose(Greedy{}); }\n"},
  }));
  EXPECT_FALSE(mentions(findings, "N1", "pick"));
  EXPECT_FALSE(mentions(findings, "N1", "Policy"));
  EXPECT_FALSE(mentions(findings, "N1", "Greedy"));
}

TEST(AnalyzeN1, TypeUsedOnlyInsideItsOwnDefinitionsIsUnused) {
  const auto findings = active(make_project({
      {"src/a/cell.hpp",
       "struct Cell {\n"
       "  static Cell make();\n"
       "  enum class Kind { kUsed, kSpare };\n"
       "};\n"
       "struct Lonely {\n"
       "  Lonely() = default;\n"
       "  Lonely copy() const;\n"
       "};\n"},
      {"src/a/cell.cpp",
       "#include \"a/cell.hpp\"\n"
       "Cell Cell::make() { return Cell{}; }\n"
       "Lonely Lonely::copy() const { return Lonely{}; }\n"
       "int spare() { return static_cast<int>(Cell::Kind::kUsed); }\n"},
  }));
  EXPECT_TRUE(mentions(findings, "N1", "unused: Cell::make"));
  EXPECT_TRUE(mentions(findings, "N1", "unused: Kind::kSpare"));
  EXPECT_FALSE(mentions(findings, "N1", "kUsed"));
  EXPECT_FALSE(mentions(findings, "N1", "unused: Cell has"));  // Cell::Kind names Cell
  // Lonely's name appears only in its body and its member's definition.
  EXPECT_TRUE(mentions(findings, "N1", "unused: Lonely has"));
  EXPECT_TRUE(mentions(findings, "N1", "unused: Lonely::copy"));
}

TEST(AnalyzeN1, StaticMemberDefinitionIsItsClassOwnSite) {
  // `T Tally::total_{...};` defines Tally's member at namespace scope; like
  // a member function's out-of-class definition, it does not use Tally.
  const auto findings = active(make_project({
      {"src/a/tally.hpp",
       "struct Tally {\n"
       "  static std::atomic<int> total_;\n"
       "  static int peak_;\n"
       "};\n"},
      {"src/a/tally.cpp",
       "#include \"a/tally.hpp\"\n"
       "std::atomic<int> Tally::total_{0};\n"
       "int Tally::peak_ = 0;\n"},
  }));
  EXPECT_TRUE(mentions(findings, "N1", "unused: Tally has"));
}

TEST(AnalyzeN1, AllowWithReasonIsHonouredAndReasonlessIsA1) {
  const std::string test_use = "TEST(Q, D) { Queue q; EXPECT_EQ(q.depth(), 0); }\n";
  const auto allowed = [&](const std::string& marker) {
    std::string header = kQueueHeader;
    header.insert(header.find("  int depth"), marker);
    return make_project({
        {"src/q/queue.hpp", header},
        {"src/q/queue.cpp", kQueueImpl},
        {"src/q/user.cpp", kQueueUser},
        {"tests/test_queue.cpp", test_use},
    });
  };
  const Project honoured =
      allowed("  // blam-analyze: allow(N1) -- invariant probe; Q.D reads it\n");
  EXPECT_EQ(count_rule(active(honoured), "N1"), 0);
  const auto all = analyze_project(honoured);
  const auto it = std::find_if(all.begin(), all.end(),
                               [](const Finding& f) { return f.rule == "N1"; });
  ASSERT_NE(it, all.end());
  EXPECT_TRUE(it->suppressed);
  EXPECT_EQ(it->suppress_reason, "invariant probe; Q.D reads it");

  const auto reasonless = active(allowed("  // blam-analyze: allow(N1)\n"));
  EXPECT_EQ(count_rule(reasonless, "N1"), 1);
  EXPECT_EQ(count_rule(reasonless, "A1"), 1);
}

TEST(AnalyzeN1, ConsumerDirectoriesAreReadForUsesOnly) {
  // A fixture class in tests/ or tools/ is never itself a finding, for N1
  // or any other rule.
  const auto findings = active(make_project({
      {"tests/test_x.cpp", "struct Unused { int never(); };\nint g_count = 0;\n"},
      {"tools/t/main.cpp", "// blam-ckpt: nonsense\nstruct Tool { void idle(); };\n"},
  }));
  EXPECT_TRUE(findings.empty());
}

// --- A1 + suppression protocol ---------------------------------------------

TEST(AnalyzeA1, MalformedAnnotationsAreFindings) {
  const auto findings = active(make_project({
      {"src/x.hpp", "struct S {\n"
                    "  int a;  // blam-ckpt: skip\n"
                    "  // blam-shared: mutex\n"
                    "  int b;\n"
                    "};\n"},
  }));
  EXPECT_GE(count_rule(findings, "A1"), 2);
}

TEST(AnalyzeA1, UnknownRuleInAllowIsAFinding) {
  const auto findings = active(make_project({
      {"src/x.cpp", "// blam-analyze: allow(K9) -- no such rule\nint g = 0;\n"},
  }));
  EXPECT_EQ(count_rule(findings, "A1"), 1);
  EXPECT_TRUE(mentions(findings, "A1", "unknown rule 'K9'"));
}

TEST(AnalyzeSuppression, AllowWithReasonSuppressesTheFinding) {
  const auto project = make_project({
      {"src/common/rng.hpp", kRegistry},
      {"src/net/build.cpp",
       "void f(const Rng& root) {\n"
       "  // blam-analyze: allow(R1) -- exercising the raw stream API\n"
       "  const Rng a = root.fork(0xbeef);\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(active(project), "R1"), 0);
  const auto all = analyze_project(project);
  const auto it = std::find_if(all.begin(), all.end(),
                               [](const Finding& f) { return f.rule == "R1"; });
  ASSERT_NE(it, all.end());
  EXPECT_TRUE(it->suppressed);
}

TEST(AnalyzeSuppression, ReasonIsMandatory) {
  const auto findings = active(make_project({
      {"src/common/rng.hpp", kRegistry},
      {"src/net/build.cpp", "void f(const Rng& root) {\n"
                            "  // blam-analyze: allow(R1)\n"
                            "  const Rng a = root.fork(0xbeef);\n"
                            "}\n"},
  }));
  EXPECT_EQ(count_rule(findings, "R1"), 1);  // not suppressed
  EXPECT_EQ(count_rule(findings, "A1"), 1);  // and the bad marker is flagged
}

TEST(AnalyzeSuppression, A1IsNotSuppressible) {
  const auto findings = active(make_project({
      {"src/x.hpp", "struct S {\n"
                    "  // blam-analyze: allow(A1) -- please look away\n"
                    "  int a;  // blam-ckpt: skip\n"
                    "};\n"},
  }));
  // The allow(A1) itself names a non-suppressible rule, and the malformed
  // skip still reports.
  EXPECT_GE(count_rule(findings, "A1"), 2);
}

// --- JSON rendering --------------------------------------------------------

TEST(AnalyzeJson, FindingsCarryTheLintJsonFields) {
  const auto project = make_project({{kEnginePath, engine_src(true)}});
  const std::string json = lint::to_json(analyze_project(project));
  EXPECT_NE(json.find("\"rule\":\"K1\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"src/sim/engine.hpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":"), std::string::npos);
  EXPECT_NE(json.find("\"col\":"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\":false"), std::string::npos);
  EXPECT_NE(json.find("Engine::drift_"), std::string::npos);
}

TEST(AnalyzeRules, RegistryListsTheFiveRules) {
  const auto& infos = rule_infos();
  ASSERT_EQ(infos.size(), 5u);
  EXPECT_EQ(infos[0].id, "K1");
  EXPECT_EQ(infos[1].id, "S2");
  EXPECT_EQ(infos[2].id, "R1");
  EXPECT_EQ(infos[3].id, "N1");
  EXPECT_EQ(infos[4].id, "A1");
}

}  // namespace
}  // namespace blam::analyze
