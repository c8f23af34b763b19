// blam-lint — a repo-native static analyzer for the BLAM simulator.
//
// Generic tools cannot express BLAM's reproduction invariants (single RNG
// authority, no unordered iteration feeding outputs, strong units at API
// boundaries, an allocation-free event hot path, committed CSV output), so
// this tool does. It is a comment/string-aware tokenizer plus a small rule
// registry; findings are suppressible inline with a written justification:
//
//   // blam-lint: allow(D2) -- lookup-only by id; never iterated
//
// A suppression on its own line covers the next source line; a trailing
// suppression covers its own line. A suppression without a reason (the text
// after `--`) is itself a finding (S1), so every exception in the tree
// carries a justification that survives review.
//
// Rules (see rules.cpp for the matching details):
//   D1  banned nondeterminism APIs outside src/common/rng.*
//   D2  unordered-container usage / iteration (ordering hazard for outputs)
//   U1  raw double/float unit-suffixed parameters in public headers
//   H1  allocation/indirection constructs in the event hot path
//   C1  CsvWriter constructed without a reachable flush() in the same file
//   W1  code line wider than 100 columns (blam-* annotation lines exempt)
//   S1  malformed suppression comment (unknown rule, missing reason)
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace blam::lint {

enum class TokKind { kIdentifier, kNumber, kString, kChar, kPunct };

struct Token {
  TokKind kind{TokKind::kPunct};
  std::string text;
  int line{0};
  int col{0};
};

/// A comment as seen by the tokenizer. `own_line` is true when nothing but
/// whitespace precedes it on its starting line (the comment "owns" the
/// line), which decides whether a suppression covers this line or the next.
struct Comment {
  std::string text;
  int line{0};      // line the comment ends on (suppressions anchor here)
  bool own_line{false};
};

/// A preprocessor directive, captured verbatim (continuations joined) so
/// cross-file passes (blam-analyze's include-graph walker) can read
/// `#include` targets without re-scanning the raw source.
struct Directive {
  std::string text;  // from '#' (exclusive) to end of line, e.g. `include "a.hpp"`
  int line{0};
};

struct TokenizedSource {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<Directive> directives;
};

/// Splits C++ source into tokens and comments. String/char literals become
/// single tokens (their contents can never trip an identifier rule), raw
/// strings and digit separators are understood, `::` is one token, and
/// preprocessor directives are skipped entirely (continuation-aware).
[[nodiscard]] TokenizedSource tokenize(std::string_view source);

struct Finding {
  std::string rule;
  std::string path;
  int line{0};
  int col{0};
  std::string message;
  bool suppressed{false};
  std::string suppress_reason;
};

struct RuleInfo {
  std::string id;
  std::string summary;
};

/// The registered rules, in report order.
[[nodiscard]] const std::vector<RuleInfo>& rule_infos();

/// Lints one in-memory source. `path` drives the per-directory rule scoping
/// (e.g. U1 only looks at headers under src/); use repo-relative paths.
/// Suppressed findings are returned with `suppressed == true` so callers
/// can audit justifications.
[[nodiscard]] std::vector<Finding> lint_source(const std::string& path, std::string_view source);

/// Reads and lints a file on disk; throws std::runtime_error if unreadable.
[[nodiscard]] std::vector<Finding> lint_file(const std::string& path);

/// Human-readable one-line rendering: `path:line:col: [rule] message`.
[[nodiscard]] std::string to_string(const Finding& finding);

/// Machine-readable rendering of a finding batch as a JSON array.
[[nodiscard]] std::string to_json(const std::vector<Finding>& findings);

}  // namespace blam::lint
