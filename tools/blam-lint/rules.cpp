// Rule implementations and the suppression engine. Matching is token-based:
// string literals and comments can never trip a rule, and `::` is a single
// token so `std::function` is the three-token sequence [std][::][function].
#include "blam-lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace blam::lint {

namespace {

// ---------------------------------------------------------------------------
// Path scoping helpers. Paths are normalized to forward slashes; scoping is
// suffix/substring based so absolute and repo-relative invocations agree.
// ---------------------------------------------------------------------------

[[nodiscard]] std::string normalize(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

[[nodiscard]] bool in_dir(const std::string& path, std::string_view dir) {
  const std::string needle = std::string{dir} + "/";
  return path.rfind(needle, 0) == 0 || path.find("/" + needle) != std::string::npos;
}

[[nodiscard]] bool ends_with(const std::string& path, std::string_view suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

[[nodiscard]] bool is_header(const std::string& path) {
  return ends_with(path, ".hpp") || ends_with(path, ".h");
}

/// The one translation unit allowed to touch entropy primitives.
[[nodiscard]] bool is_rng_authority(const std::string& path) {
  return ends_with(path, "src/common/rng.hpp") || ends_with(path, "src/common/rng.cpp") ||
         path == "common/rng.hpp" || path == "common/rng.cpp";
}

/// Files on the event hot path PR 3 made allocation-free, plus the PR-7
/// million-node ingest path (arena, columnar ledger, staging queue).
/// sweep_runner and campaign live in src/sim/ too but are per-cell
/// orchestration, not per-event code, so they are deliberately not listed.
[[nodiscard]] bool is_hot_path(const std::string& path) {
  static constexpr std::array<std::string_view, 9> kHot = {
      "src/sim/event_queue.hpp",  "src/sim/event_queue.cpp",
      "src/sim/simulator.hpp",    "src/sim/simulator.cpp",
      "src/sim/inline_callback.hpp",
      "src/core/span_arena.hpp",  "src/core/ledger_store.hpp",
      "src/core/ledger_store.cpp", "src/core/soc_ingest_queue.hpp",
  };
  return std::any_of(kHot.begin(), kHot.end(),
                     [&path](std::string_view h) { return ends_with(path, h); });
}

/// PR-8 sharded engine: its per-epoch worker loop shares the event hot
/// path, so std::function, node-based containers, and plain new/delete stay
/// banned — but shard construction happens once per run and legitimately
/// owns its parts through unique_ptr/shared_ptr factories, so the smart
/// pointer bans of the strict hot-path set do not apply.
[[nodiscard]] bool is_shard_engine(const std::string& path) {
  return ends_with(path, "src/sim/shard_engine.hpp") ||
         ends_with(path, "src/sim/shard_engine.cpp");
}

struct Ctx {
  const std::string& path;
  const std::vector<Token>& toks;
};

[[nodiscard]] bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

/// tokens[i] is preceded by `std::` (identifier std, then the :: token).
[[nodiscard]] bool after_std_scope(const std::vector<Token>& toks, std::size_t i) {
  return i >= 2 && toks[i - 1].kind == TokKind::kPunct && toks[i - 1].text == "::" &&
         is_ident(toks[i - 2], "std");
}

void add(std::vector<Finding>& out, std::string rule, const Ctx& ctx, const Token& at,
         std::string message) {
  Finding f;
  f.rule = std::move(rule);
  f.path = ctx.path;
  f.line = at.line;
  f.col = at.col;
  f.message = std::move(message);
  out.push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// D1: banned nondeterminism APIs outside the RNG authority.
// ---------------------------------------------------------------------------

void rule_d1(const Ctx& ctx, std::vector<Finding>& out) {
  if (is_rng_authority(ctx.path)) return;
  static const std::map<std::string, std::string> kBanned = {
      {"srand", "seeds the global C RNG; use blam::Rng streams"},
      {"random_device", "reads OS entropy; derive streams from the scenario seed instead"},
      {"mt19937", "uninjected engine; use blam::Rng (xoshiro256++) streams"},
      {"mt19937_64", "uninjected engine; use blam::Rng (xoshiro256++) streams"},
      {"default_random_engine", "implementation-defined engine; use blam::Rng streams"},
      {"system_clock", "wall-clock time is nondeterministic; use Simulator::now() "
                       "(steady_clock is fine for benchmarking walls)"},
  };
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (const auto it = kBanned.find(t.text); it != kBanned.end()) {
      add(out, "D1", ctx, t, t.text + ": " + it->second);
      continue;
    }
    // rand(...) as a call; `rand` as a plain name (e.g. a field) is not the
    // libc function.
    if (t.text == "rand" && i + 1 < toks.size() && toks[i + 1].text == "(") {
      add(out, "D1", ctx, t, "rand(): global C RNG; use blam::Rng streams");
      continue;
    }
    // time(nullptr) / time(NULL) / time(0).
    if (t.text == "time" && i + 3 < toks.size() && toks[i + 1].text == "(" &&
        (toks[i + 2].text == "nullptr" || toks[i + 2].text == "NULL" || toks[i + 2].text == "0") &&
        toks[i + 3].text == ")") {
      add(out, "D1", ctx, t, "time(" + toks[i + 2].text + "): wall-clock seed; "
                             "derive randomness from the scenario seed");
    }
  }
}

// ---------------------------------------------------------------------------
// D2: unordered-container hazards. Two checks: (a) every unordered_map/set
// type usage is a latent ordering hazard that must carry a justification,
// and (b) a range-for over a name declared with an unordered type in the
// same file is flagged at the loop. (b) cannot see through `auto` locals
// initialized from function calls; (a) is the backstop that makes the
// hazard visible at the declaration.
// ---------------------------------------------------------------------------

void rule_d2(const Ctx& ctx, std::vector<Finding>& out) {
  if (in_dir(ctx.path, "tests")) return;  // gtest fixtures may use anything
  static constexpr std::array<std::string_view, 4> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
  const auto& toks = ctx.toks;

  std::set<std::string> declared;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier ||
        std::find(kUnordered.begin(), kUnordered.end(), t.text) == kUnordered.end()) {
      continue;
    }
    add(out, "D2", ctx, t,
        "std::" + t.text + ": iteration order is unspecified; prove it cannot reach any "
        "output (suppress with ordering proof) or iterate a sorted key snapshot");
    // Capture the declared name: skip the template argument list, then the
    // next identifier is the variable (or alias / function) being declared.
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<") {
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (toks[j].text == "<") ++depth;
        if (toks[j].text == ">") {
          if (--depth == 0) {
            ++j;
            break;
          }
        }
        // `>>` closing nested templates arrives as two '>' puncts already.
      }
    }
    while (j < toks.size() && (toks[j].text == "&" || toks[j].text == "*")) ++j;
    if (j < toks.size() && toks[j].kind == TokKind::kIdentifier) declared.insert(toks[j].text);
  }
  if (declared.empty()) return;

  // Range-for loops whose range expression names a declared unordered
  // container: `for ( ... : expr )`.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || toks[i + 1].text != "(") continue;
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")" && --depth == 0) {
        close = j;
        break;
      }
      if (toks[j].kind == TokKind::kPunct && toks[j].text == ":" && depth == 1 && colon == 0) {
        colon = j;
      }
    }
    if (colon == 0 || close == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind == TokKind::kIdentifier && declared.contains(toks[j].text)) {
        add(out, "D2", ctx, toks[i],
            "range-for over unordered container '" + toks[j].text +
                "': element order is nondeterministic; iterate sorted keys instead");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// U1: raw double/float unit-suffixed parameters in public headers. The
// strong types in src/common/units.hpp exist so seconds/joules/watts cannot
// be mixed up; a raw `double foo_s` parameter reintroduces the hazard at
// the API boundary. Matching is restricted to parenthesised contexts so
// struct fields (CSV staging rows) are not flagged.
// ---------------------------------------------------------------------------

[[nodiscard]] const char* unit_suffix_hint(const std::string& name) {
  const auto has = [&name](std::string_view suffix) {
    return name.size() > suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (has("_s")) return "blam::Time";
  if (has("_j")) return "blam::Energy";
  if (has("_w")) return "blam::Power";
  if (has("_soc")) return "a documented [0,1] fraction type";
  return nullptr;
}

void rule_u1(const Ctx& ctx, std::vector<Finding>& out) {
  if (!is_header(ctx.path) || !in_dir(ctx.path, "src")) return;
  const auto& toks = ctx.toks;
  int paren_depth = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(") ++paren_depth;
      if (t.text == ")") paren_depth = std::max(0, paren_depth - 1);
      continue;
    }
    if (paren_depth == 0 || (t.text != "double" && t.text != "float")) continue;
    if (i + 2 >= toks.size() || toks[i + 1].kind != TokKind::kIdentifier) continue;
    const std::string& name = toks[i + 1].text;
    const std::string& after = toks[i + 2].text;
    if (after != "," && after != ")" && after != "=") continue;
    if (const char* hint = unit_suffix_hint(name); hint != nullptr) {
      add(out, "U1", ctx, t,
          "raw " + t.text + " parameter '" + name + "' in a public header; use " + hint +
              " (see src/common/units.hpp)");
    }
  }
}

// ---------------------------------------------------------------------------
// H1: allocation/indirection constructs in hot-path files. Guards PR 3's
// zero-allocation event loop: std::function, plain new/delete, and
// node-based std:: containers may not come back. Placement new (`new (`)
// and `= delete` are legal; std::vector is allowed because the approved
// pattern (pre-reserved slab + free list) is built on it. The PR-8 shard
// engine is covered by a narrower set: setup-time smart pointers are fine,
// per-event hazards are not.
// ---------------------------------------------------------------------------

void rule_h1(const Ctx& ctx, std::vector<Finding>& out) {
  const bool shard_engine = is_shard_engine(ctx.path);
  if (!shard_engine && !is_hot_path(ctx.path)) return;
  static constexpr std::array<std::string_view, 11> kBannedStd = {
      "function", "map",     "set",        "multimap",    "multiset",   "list",
      "deque",    "forward_list", "shared_ptr", "make_shared", "make_unique"};
  // Shard-engine files keep the per-event bans but drop the smart-pointer
  // ones (see is_shard_engine).
  static constexpr std::array<std::string_view, 8> kBannedShard = {
      "function", "map", "set", "multimap", "multiset", "list", "deque", "forward_list"};
  const std::string_view* banned_begin = shard_engine ? kBannedShard.data() : kBannedStd.data();
  const std::string_view* banned_end =
      banned_begin + (shard_engine ? kBannedShard.size() : kBannedStd.size());
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (after_std_scope(toks, i) &&
        std::find(banned_begin, banned_end, t.text) != banned_end) {
      add(out, "H1", ctx, t,
          "std::" + t.text + " in an event hot-path file; use InlineCallback / pre-reserved "
          "vectors / slot pools (see DESIGN.md sec. 9)");
      continue;
    }
    if (t.text == "new" && i + 1 < toks.size() && toks[i + 1].text != "(") {
      add(out, "H1", ctx, t, "allocating `new` in an event hot-path file (placement new into "
                             "owned storage is the allowed form)");
      continue;
    }
    if (t.text == "delete" && (i == 0 || toks[i - 1].text != "=")) {
      add(out, "H1", ctx, t, "`delete` in an event hot-path file; hot-path objects live in "
                             "pre-reserved pools");
    }
  }
}

// ---------------------------------------------------------------------------
// C1: a CsvWriter constructed without a reachable flush() in the same file.
// flush() is the commit step of the atomic tmp-rename protocol; forgetting
// it means no output file at all (the destructor only warns).
// ---------------------------------------------------------------------------

void rule_c1(const Ctx& ctx, std::vector<Finding>& out) {
  if (in_dir(ctx.path, "tests")) return;  // tests construct-without-flush on purpose
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_ident(toks[i], "CsvWriter")) continue;
    // `CsvWriter name{...}` / `CsvWriter name(...)` / `CsvWriter name;` is a
    // construction; `CsvWriter::` / `class CsvWriter` / `CsvWriter(` are not.
    if (toks[i + 1].kind != TokKind::kIdentifier) continue;
    const std::string& name = toks[i + 1].text;
    const std::string& open = toks[i + 2].text;
    if (open != "{" && open != "(" && open != ";") continue;
    bool flushed = false;
    for (std::size_t j = i + 3; j + 2 < toks.size(); ++j) {
      if (is_ident(toks[j], name) && toks[j + 1].text == "." &&
          is_ident(toks[j + 2], "flush")) {
        flushed = true;
        break;
      }
    }
    if (!flushed) {
      add(out, "C1", ctx, toks[i],
          "CsvWriter '" + name + "' is never flush()ed in this file; without the commit "
          "rename the output file is never produced");
    }
  }
}

// ---------------------------------------------------------------------------
// W1: a code line wider than .clang-format's ColumnLimit, in UTF-8 code
// points. A line that carries a blam-ckpt / blam-lint / blam-shared comment
// is exempt: the analyzers read each such annotation as one line, so
// .clang-format's CommentPragmas keeps it whole, and so does this rule.
// ---------------------------------------------------------------------------

constexpr int kColumnLimit = 100;

void rule_w1(const Ctx& ctx, std::string_view source, const std::vector<Comment>& comments,
             std::vector<Finding>& out) {
  std::set<int> annotated;
  for (const Comment& c : comments) {
    for (const std::string_view pragma : {"blam-ckpt:", "blam-lint:", "blam-shared:"}) {
      if (c.text.find(pragma) != std::string::npos) annotated.insert(c.line);
    }
  }
  int line = 1;
  int columns = 0;
  for (std::size_t i = 0; i <= source.size(); ++i) {
    const bool end = i == source.size() || source[i] == '\n';
    if (!end) {
      // UTF-8 continuation bytes share their lead byte's column; a CR
      // before the newline takes none.
      const auto byte = static_cast<unsigned char>(source[i]);
      if ((byte & 0xC0) != 0x80 && byte != '\r') ++columns;
      continue;
    }
    if (columns > kColumnLimit && !annotated.contains(line)) {
      add(out, "W1", ctx, Token{TokKind::kPunct, "", line, kColumnLimit + 1},
          "line is " + std::to_string(columns) + " columns wide, over the " +
              std::to_string(kColumnLimit) + "-column limit of .clang-format; wrap it");
    }
    ++line;
    columns = 0;
  }
}

// ---------------------------------------------------------------------------
// Suppressions: the tool name, a colon, then `allow(RULE[,RULE...]) -- reason`
// (see lint.hpp for a literal example). Trailing comments cover their own
// line; own-line comments cover the next line. A marker that does not
// parse, names an unknown rule, or lacks a reason is an S1 finding (S1
// itself cannot be suppressed).
// ---------------------------------------------------------------------------

struct Suppression {
  std::set<std::string> rules;
  std::string reason;
  int first_line{0};
  int last_line{0};
};

[[nodiscard]] bool known_rule(const std::string& id) {
  const auto& infos = rule_infos();
  return std::any_of(infos.begin(), infos.end(),
                     [&id](const RuleInfo& r) { return r.id == id && r.id != "S1"; });
}

void parse_suppressions(const Ctx& ctx, const std::vector<Comment>& comments,
                        std::vector<Suppression>& sups, std::vector<Finding>& out) {
  static constexpr std::string_view kMarker = "blam-lint:";
  for (const Comment& c : comments) {
    const std::size_t mark = c.text.find(kMarker);
    if (mark == std::string::npos) continue;
    const Token anchor{TokKind::kPunct, "", c.line, 1};
    std::string rest = c.text.substr(mark + kMarker.size());
    const std::size_t allow = rest.find("allow(");
    const std::size_t close = rest.find(')', allow == std::string::npos ? 0 : allow);
    if (allow == std::string::npos || close == std::string::npos) {
      add(out, "S1", ctx, anchor, "malformed suppression: expected `blam-lint: allow(RULE[,"
                                  "RULE...]) -- reason`");
      continue;
    }
    Suppression sup;
    std::stringstream list{rest.substr(allow + 6, close - allow - 6)};
    std::string id;
    bool ok = true;
    while (std::getline(list, id, ',')) {
      id.erase(std::remove_if(id.begin(), id.end(),
                              [](unsigned char ch) { return std::isspace(ch) != 0; }),
               id.end());
      if (id.empty()) continue;
      if (!known_rule(id)) {
        add(out, "S1", ctx, anchor, "suppression names unknown rule '" + id + "'");
        ok = false;
        break;
      }
      sup.rules.insert(id);
    }
    if (!ok) continue;
    if (sup.rules.empty()) {
      add(out, "S1", ctx, anchor, "suppression allows no rules");
      continue;
    }
    const std::size_t dash = rest.find("--", close);
    std::string reason = dash == std::string::npos ? "" : rest.substr(dash + 2);
    const auto not_space = [](unsigned char ch) { return std::isspace(ch) == 0; };
    reason.erase(reason.begin(), std::find_if(reason.begin(), reason.end(), not_space));
    reason.erase(std::find_if(reason.rbegin(), reason.rend(), not_space).base(), reason.end());
    if (reason.empty()) {
      add(out, "S1", ctx, anchor, "suppression has no justification: add `-- <reason>`");
      continue;
    }
    sup.reason = std::move(reason);
    sup.first_line = c.own_line ? c.line + 1 : c.line;
    sup.last_line = sup.first_line;
    sups.push_back(std::move(sup));
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_infos() {
  static const std::vector<RuleInfo> kInfos = {
      {"D1", "banned nondeterminism APIs outside src/common/rng.*"},
      {"D2", "unordered-container usage/iteration (output-ordering hazard)"},
      {"U1", "raw double/float unit-suffixed parameters in public headers"},
      {"H1", "allocation/indirection constructs in event hot-path files"},
      {"C1", "CsvWriter constructed without a reachable flush()"},
      {"W1", "code line wider than 100 columns (annotation lines exempt)"},
      {"S1", "malformed suppression comment (not itself suppressible)"},
  };
  return kInfos;
}

std::vector<Finding> lint_source(const std::string& path, std::string_view source) {
  const std::string norm = normalize(path);
  const TokenizedSource tokenized = tokenize(source);
  const Ctx ctx{norm, tokenized.tokens};

  std::vector<Finding> findings;
  rule_d1(ctx, findings);
  rule_d2(ctx, findings);
  rule_u1(ctx, findings);
  rule_h1(ctx, findings);
  rule_c1(ctx, findings);
  rule_w1(ctx, source, tokenized.comments, findings);

  std::vector<Suppression> sups;
  parse_suppressions(ctx, tokenized.comments, sups, findings);

  for (Finding& f : findings) {
    if (f.rule == "S1") continue;
    for (const Suppression& sup : sups) {
      if (f.line >= sup.first_line && f.line <= sup.last_line && sup.rules.contains(f.rule)) {
        f.suppressed = true;
        f.suppress_reason = sup.reason;
        break;
      }
    }
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    if (a.col != b.col) return a.col < b.col;
    return a.rule < b.rule;
  });
  return findings;
}

std::vector<Finding> lint_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"blam-lint: cannot read " + path};
  std::ostringstream buf;
  buf << in.rdbuf();
  return lint_source(path, buf.str());
}

std::string to_string(const Finding& f) {
  std::string line = f.path + ":" + std::to_string(f.line) + ":" + std::to_string(f.col) +
                     ": [" + f.rule + "] " + f.message;
  if (f.suppressed) line += " (suppressed: " + f.suppress_reason + ")";
  return line;
}

std::string to_json(const std::vector<Finding>& findings) {
  const auto escape = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  };
  std::string json = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) json += ",";
    json += "\n  {\"rule\":\"" + escape(f.rule) + "\",\"path\":\"" + escape(f.path) +
            "\",\"line\":" + std::to_string(f.line) + ",\"col\":" + std::to_string(f.col) +
            ",\"message\":\"" + escape(f.message) + "\",\"suppressed\":" +
            (f.suppressed ? "true" : "false") + ",\"reason\":\"" + escape(f.suppress_reason) +
            "\"}";
  }
  json += "\n]\n";
  return json;
}

}  // namespace blam::lint
