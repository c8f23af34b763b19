// blam-analyze — cross-file semantic analysis for the BLAM simulator.
//
// blam-lint (PR 5) matches token patterns inside one file; the invariants
// PRs 8-9 introduced are cross-file properties no single-TU pattern can
// check. This tool builds per-TU structure tables (class/struct member
// declarations, function definitions with body token ranges, namespace-scope
// and function-local statics, include directives) on top of the blam-lint
// tokenizer, then runs four project-wide rules:
//
//   K1  checkpoint coverage: every data member of every type reachable from
//       a state-codec serialization entry point (the "blamsim v4" engine
//       checkpoint, the gateway ledger's `ledger` section, free
//       StateWriter/StateReader functions) must be written/restored
//       through state_codec, or carry an explicit
//       `// blam-ckpt: skip -- <reason>` exemption on/above its declaration.
//   S2  shard-state escape: mutable namespace-scope or function-local
//       `static` state, non-const globals, and static data members in any
//       TU reachable from shard_engine.cpp's include closure (headers are
//       paired with their same-stem .cpp) are cross-shard determinism
//       hazards unless const/constexpr, std::atomic, or annotated
//       `// blam-shared: <sync mechanism> -- <reason>`.
//   R1  RNG-salt registry: every literal stream salt (Rng::fork argument,
//       Rng{seed, stream} stream argument) in src/ must be spelled as a
//       constant from the `blam::salt` registry in src/common/rng.hpp;
//       duplicate registry values and hex literals respelling a registered
//       salt are errors too.
//   N1  no consumer: every function, member function, class/struct/union,
//       enum, enumerator and alias declared in a src/ header needs one use
//       (an identifier token outside its own declaration and definitions)
//       in src/, bench/, examples/, perfbench/ or tools/. Names used only
//       in tests/ are "test-only API"; names used nowhere are "unused".
//   A1  malformed annotation (bad skip/shared grammar, unknown rule in an
//       allow(), missing reason). Not itself suppressible — mirrors S1.
//
// Findings reuse blam::lint::Finding and the PR-5 suppression semantics
// under the tool's own marker: `// blam-analyze: allow(K1) -- reason`
// (trailing covers its own line, own-line covers the next line).
//
// Units under bench/, examples/, perfbench/, tools/ and tests/ are read for
// N1's uses only: K1/S2/R1/A1 never report in them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "blam-lint/lint.hpp"

namespace blam::analyze {

/// One declared data member of a class/struct.
struct MemberDecl {
  std::string name;
  /// Joined declaration-type tokens, e.g. "std::optional<AdrController>".
  std::string type;
  int line{0};
  bool is_static{false};
  bool is_const{false};  // const or constexpr
  bool is_atomic{false};
  bool is_thread_local{false};
  bool is_bitfield{false};
  /// `// blam-ckpt: skip -- <reason>` on or directly above the declaration.
  bool ckpt_skip{false};
  std::string ckpt_reason;
};

struct ClassInfo {
  /// Nested classes are keyed through their lexical parent: "Rng::State".
  std::string name;
  int line{0};
  bool is_struct{false};
  std::vector<std::string> bases;  // names as written, qualifiers kept
  std::vector<MemberDecl> members;
  /// Names of member functions declared (or defined inline) in the class.
  std::vector<std::string> member_functions;
  /// Token index range of the body, [begin, end): `{` through `}`.
  std::size_t body_begin{0};
  std::size_t body_end{0};
};

struct ParamDecl {
  std::string type;  // joined type tokens
  std::string name;  // "" for unnamed parameters
};

/// A function DEFINITION (has a body). Declarations without bodies are only
/// recorded as ClassInfo::member_functions entries.
struct FunctionDef {
  /// Qualifier as written for out-of-class definitions ("Node",
  /// "Rng::State"); "" for free functions; the enclosing class name for
  /// inline member definitions.
  std::string class_name;
  std::string name;
  int line{0};
  /// Token index of the name, and of the declaration's first token (after
  /// any `template <...>` header).
  std::size_t name_token{0};
  std::size_t decl_begin{0};
  std::vector<ParamDecl> params;
  /// Names the definition's own `template <...>` header declares ("Row"
  /// for `template <typename Row>`); empty for a non-template.
  std::vector<std::string> template_params;
  /// Token index range of the body, [begin, end): `{` .. `}` inclusive of
  /// neither brace's payload beyond the braces themselves.
  std::size_t body_begin{0};
  std::size_t body_end{0};
};

/// An S2 candidate: a declaration whose storage outlives one event and is
/// visible to more than one shard worker.
struct StaticDecl {
  enum class Kind {
    kGlobal,           // namespace-scope, no `static` (incl. anonymous ns)
    kNamespaceStatic,  // namespace-scope `static`
    kFunctionLocal,    // function-local `static`
    kClassStatic,      // static data member
  };
  Kind kind{Kind::kGlobal};
  std::string name;
  std::string type;
  int line{0};
  bool is_const{false};  // const or constexpr
  bool is_atomic{false};
  bool is_thread_local{false};
  /// `// blam-shared: <mechanism> -- <reason>` on or above the declaration.
  bool shared_annotated{false};
  std::string shared_mechanism;
  std::string shared_reason;
  /// `Foo` for an out-of-class static data member definition
  /// (`T Foo::bar{...};`), whose tokens [decl_begin, decl_end) are one of
  /// Foo's own sites for N1; "" otherwise.
  std::string class_name;
  std::size_t decl_begin{0};
  std::size_t decl_end{0};
};

/// A named declaration at namespace or class scope: N1's census. A
/// definition of an already-declared member (`void Node::f() {}`) is not
/// one.
struct ApiDecl {
  enum class Kind { kFunction, kClass, kEnum, kEnumerator, kAlias };
  Kind kind{Kind::kFunction};
  std::string name;
  /// Key of the enclosing class ("Rng::State"), or the enum's name for an
  /// enumerator; "" at namespace scope.
  std::string owner;
  std::size_t token{0};  // index of the name token
};

struct IncludeDecl {
  std::string target;  // as written between the delimiters
  int line{0};
  bool quoted{false};  // "" include (project); <> includes are ignored
};

/// Everything the structure pass extracts from one translation unit.
struct TranslationUnit {
  std::string path;  // normalized, repo-relative preferred
  lint::TokenizedSource src;
  std::vector<ClassInfo> classes;
  std::vector<FunctionDef> functions;
  std::vector<StaticDecl> statics;
  std::vector<ApiDecl> api;
  std::vector<IncludeDecl> includes;
};

/// Parses one in-memory source into its structure tables.
[[nodiscard]] TranslationUnit parse_unit(const std::string& path, std::string_view source);

struct Project {
  std::vector<TranslationUnit> units;
};

/// Computes the include closure of `root_path` (a unit path) over the
/// project's quoted includes. Targets resolve against a `src/`-style include
/// root and against the including file's directory; every closure header is
/// paired with its same-stem .cpp (a TU compiled against a closure header
/// runs inside the shard workers even though nothing #includes it).
/// Returns unit paths, sorted. Exposed for tests.
[[nodiscard]] std::vector<std::string> include_closure(const Project& project,
                                                       const std::string& root_path);

/// Runs K1/S2/R1/N1/A1 over the whole project and applies suppressions.
/// Findings come back sorted by (path, line, col, rule); suppressed ones are
/// included with `suppressed == true`.
[[nodiscard]] std::vector<lint::Finding> analyze_project(const Project& project);

/// The registered rules, in report order.
[[nodiscard]] const std::vector<lint::RuleInfo>& rule_infos();

}  // namespace blam::analyze
