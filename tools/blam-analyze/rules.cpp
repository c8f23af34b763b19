// Cross-file rules on top of the structure pass. The K1 engine builds one
// "serialization group" per checkpoint root (a class with a
// checkpoint_state/restore_state or checkpoint/restore member pair, or the
// subject of a free StateWriter/StateReader serializer), chases member
// accesses and member-function calls to a fixpoint, and then requires every
// declared data member of every class in the group to either appear in the
// group's serialization bodies or carry a `// blam-ckpt: skip` exemption.
// Coverage is name-based on purpose: it is coarse enough to survive locals,
// structured bindings and snapshot structs without a real type checker. The
// price: a member some group body names only through an accessor or a
// reset passes too (DESIGN.md §16.2).
#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "blam-analyze/analyze.hpp"
#include "blam-analyze/annotations.hpp"

namespace blam::analyze {

namespace {

using lint::Finding;
using lint::TokKind;
using lint::Token;

// ---------------------------------------------------------------------------
// Path helpers (the blam-lint conventions: forward slashes, suffix-based
// scoping so absolute and repo-relative invocations agree).
// ---------------------------------------------------------------------------

[[nodiscard]] bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

[[nodiscard]] bool in_dir(const std::string& path, std::string_view dir) {
  const std::string needle = std::string{dir} + "/";
  return path.rfind(needle, 0) == 0 || path.find("/" + needle) != std::string::npos;
}

/// Where a unit sits: src/ (and any path outside the tree's top-level
/// directories) is analyzed; bench/, examples/, perfbench/ and tools/ are
/// consumers and tests/ is tests, both read for N1's uses only. The last
/// matching path component decides, so a checkout under some `tools/`
/// directory still analyzes its own src/.
enum class Role { kAnalyzed, kConsumer, kTest };

[[nodiscard]] Role role_of(const std::string& path) {
  Role role = Role::kAnalyzed;
  std::size_t begin = 0;
  while (begin < path.size()) {
    std::size_t end = path.find('/', begin);
    if (end == std::string::npos) break;  // the file name itself
    const std::string_view dir{path.data() + begin, end - begin};
    if (dir == "src") role = Role::kAnalyzed;
    if (dir == "bench" || dir == "examples" || dir == "perfbench" || dir == "tools") {
      role = Role::kConsumer;
    }
    if (dir == "tests") role = Role::kTest;
    begin = end + 1;
  }
  return role;
}

[[nodiscard]] bool analyzed(const TranslationUnit& unit) {
  return role_of(unit.path) == Role::kAnalyzed;
}

[[nodiscard]] bool is_rng_authority(const std::string& path) {
  return ends_with(path, "src/common/rng.hpp") || ends_with(path, "src/common/rng.cpp") ||
         path == "common/rng.hpp" || path == "common/rng.cpp";
}

[[nodiscard]] std::string last_component(const std::string& key) {
  const std::size_t pos = key.rfind("::");
  return pos == std::string::npos ? key : key.substr(pos + 2);
}

void add_finding(std::vector<Finding>& out, std::string rule, const std::string& path, int line,
                 int col, std::string message) {
  Finding f;
  f.rule = std::move(rule);
  f.path = path;
  f.line = line;
  f.col = col;
  f.message = std::move(message);
  out.push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// Shared indexes over the project.
// ---------------------------------------------------------------------------

struct ClassRef {
  const ClassInfo* info;
  const TranslationUnit* unit;
};

struct Indexes {
  std::map<std::string, std::vector<ClassRef>> by_key;
  std::map<std::string, std::vector<std::string>> keys_by_last;
  /// (last class-name component + '\n' + function name) -> definitions.
  std::map<std::string, std::vector<const FunctionDef*>> defs;
  std::map<const FunctionDef*, const TranslationUnit*> def_unit;
  /// base last-component -> keys of classes listing it as a base.
  std::map<std::string, std::vector<std::string>> derived;
};

[[nodiscard]] Indexes build_indexes(const Project& project) {
  Indexes ix;
  for (const TranslationUnit& unit : project.units) {
    if (!analyzed(unit)) continue;
    for (const ClassInfo& cls : unit.classes) {
      ix.by_key[cls.name].push_back(ClassRef{&cls, &unit});
      ix.keys_by_last[last_component(cls.name)].push_back(cls.name);
      for (const std::string& base : cls.bases) {
        ix.derived[last_component(base)].push_back(cls.name);
      }
    }
    for (const FunctionDef& def : unit.functions) {
      const std::string owner = def.class_name.empty() ? "" : last_component(def.class_name);
      ix.defs[owner + "\n" + def.name].push_back(&def);
      ix.def_unit[&def] = &unit;
    }
  }
  return ix;
}

[[nodiscard]] bool is_builtinish(const std::string& t) {
  static const std::set<std::string> kBuiltin = {
      "void",     "bool",     "char",    "int",      "short",    "long",     "float",
      "double",   "signed",   "unsigned", "auto",    "size_t",   "ssize_t",  "ptrdiff_t",
      "uint8_t",  "uint16_t", "uint32_t", "uint64_t", "int8_t",  "int16_t",  "int32_t",
      "int64_t",  "uintptr_t", "intptr_t", "wchar_t", "char8_t", "char16_t", "char32_t"};
  return kBuiltin.contains(t);
}

/// Identifier chains ("std::optional", "AdrController") appearing in a
/// rendered type string, in order.
[[nodiscard]] std::vector<std::string> type_chains(const std::string& type) {
  std::vector<std::string> chains;
  std::string cur;
  for (std::size_t i = 0; i < type.size(); ++i) {
    const char c = type[i];
    if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_') {
      cur += c;
      continue;
    }
    if (c == ':' && i + 1 < type.size() && type[i + 1] == ':' && !cur.empty()) {
      cur += "::";
      ++i;
      continue;
    }
    if (!cur.empty()) chains.push_back(cur);
    cur.clear();
  }
  if (!cur.empty()) chains.push_back(cur);
  return chains;
}

/// Resolves the class keys a member/parameter type refers to. `owner` is
/// the class whose scope the type was written in ("" for free functions);
/// nested names resolve through the owner's lexical parents, then by
/// unambiguous last-component match.
[[nodiscard]] std::vector<std::string> resolve_type(const Indexes& ix, const std::string& owner,
                                                    const std::string& type) {
  std::vector<std::string> out;
  for (const std::string& chain : type_chains(type)) {
    if (chain.rfind("std::", 0) == 0 || chain == "std") continue;
    if (is_builtinish(chain)) continue;
    std::string hit;
    if (ix.by_key.contains(chain)) {
      hit = chain;
    } else {
      for (std::string prefix = owner; !prefix.empty() && hit.empty();) {
        const std::string candidate = prefix + "::" + chain;
        if (ix.by_key.contains(candidate)) hit = candidate;
        const std::size_t pos = prefix.rfind("::");
        prefix = pos == std::string::npos ? std::string{} : prefix.substr(0, pos);
      }
      if (hit.empty()) {
        const auto it = ix.keys_by_last.find(last_component(chain));
        if (it != ix.keys_by_last.end()) {
          std::vector<std::string> matches;
          for (const std::string& key : it->second) {
            if (key == chain || ends_with(key, "::" + chain)) matches.push_back(key);
          }
          if (matches.size() == 1) hit = matches.front();
        }
      }
    }
    if (!hit.empty() && std::find(out.begin(), out.end(), hit) == out.end()) {
      out.push_back(hit);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// K1: checkpoint coverage.
// ---------------------------------------------------------------------------

struct Group {
  std::set<std::string> classes;
  std::set<const FunctionDef*> bodies;
  std::set<std::string> idents;  // identifier tokens across all bodies
};

[[nodiscard]] bool declares_member_fn(const Indexes& ix, const std::string& key,
                                      const std::string& name) {
  const auto it = ix.by_key.find(key);
  if (it == ix.by_key.end()) return false;
  for (const ClassRef& ref : it->second) {
    const auto& fns = ref.info->member_functions;
    if (std::find(fns.begin(), fns.end(), name) != fns.end()) return true;
  }
  return false;
}

/// Looks up data member `name` on `key`. Members exempted with
/// `blam-ckpt: skip` are reported as absent: they are declared out of
/// checkpoint coverage, so access chains through them must not pull their
/// type into a serialization group (a config pointer read during a
/// restore-rebuild does not make the whole config checkpoint-covered).
[[nodiscard]] bool has_data_member(const Indexes& ix, const std::string& key,
                                   const std::string& name, std::string* type_out) {
  const auto it = ix.by_key.find(key);
  if (it == ix.by_key.end()) return false;
  for (const ClassRef& ref : it->second) {
    for (const MemberDecl& m : ref.info->members) {
      if (m.name == name && !m.ckpt_skip) {
        if (type_out != nullptr) *type_out = m.type;
        return true;
      }
    }
  }
  return false;
}

/// All transitive derived classes of `key` (by last-component base match).
void collect_derived(const Indexes& ix, const std::string& key, std::set<std::string>& out) {
  const auto it = ix.derived.find(last_component(key));
  if (it == ix.derived.end()) return;
  for (const std::string& d : it->second) {
    if (out.insert(d).second) collect_derived(ix, d, out);
  }
}

class K1Engine {
 public:
  K1Engine(const Project& project, const Indexes& ix) : project_{project}, ix_{ix} {}

  void run(std::vector<Finding>& findings) {
    discover_roots();
    for (Group& g : groups_) close_group(g);
    if (std::getenv("BLAM_ANALYZE_DEBUG") != nullptr) {
      for (const Group& g : groups_) {
        std::fprintf(stderr, "group:");
        for (const auto& c : g.classes) std::fprintf(stderr, " %s", c.c_str());
        std::fprintf(stderr, "\n  bodies:");
        for (const FunctionDef* d : g.bodies) {
          std::fprintf(stderr, " %s::%s", d->class_name.c_str(), d->name.c_str());
        }
        std::fprintf(stderr, "\n");
      }
    }
    evaluate(findings);
  }

 private:
  const Project& project_;
  const Indexes& ix_;
  std::vector<Group> groups_;

  static constexpr std::array<std::string_view, 2> kPairA = {"checkpoint_state",
                                                             "restore_state"};
  static constexpr std::array<std::string_view, 2> kPairB = {"checkpoint", "restore"};

  [[nodiscard]] std::vector<const FunctionDef*> defs_of(const std::string& key,
                                                        const std::string& name) const {
    const auto it = ix_.defs.find(last_component(key) + "\n" + name);
    return it == ix_.defs.end() ? std::vector<const FunctionDef*>{} : it->second;
  }

  void discover_roots() {
    // (a) classes with a serialization member pair.
    for (const auto& [key, refs] : ix_.by_key) {
      for (const auto& pair : {kPairA, kPairB}) {
        if (!declares_member_fn(ix_, key, std::string{pair[0]}) ||
            !declares_member_fn(ix_, key, std::string{pair[1]})) {
          continue;
        }
        Group g;
        g.classes.insert(key);
        for (const auto& fn : pair) {
          for (const FunctionDef* def : defs_of(key, std::string{fn})) g.bodies.insert(def);
        }
        groups_.push_back(std::move(g));
      }
    }
    // (b) free functions with a StateWriter/StateReader parameter: every
    // other class-typed parameter is a serialized subject, except one whose
    // type names the function's own template parameter (`const Row&` in
    // `template <typename Row> void write_row(StateWriter&, const Row&)`
    // is no class called Row).
    for (const TranslationUnit& unit : project_.units) {
      if (!analyzed(unit)) continue;
      for (const FunctionDef& def : unit.functions) {
        if (!def.class_name.empty()) continue;
        const bool codec = std::any_of(def.params.begin(), def.params.end(), [](const auto& p) {
          return p.type.find("StateWriter") != std::string::npos ||
                 p.type.find("StateReader") != std::string::npos;
        });
        if (!codec) continue;
        for (const ParamDecl& p : def.params) {
          if (p.type.find("StateWriter") != std::string::npos ||
              p.type.find("StateReader") != std::string::npos) {
            continue;
          }
          const std::vector<std::string> chains = type_chains(p.type);
          if (std::find_first_of(chains.begin(), chains.end(), def.template_params.begin(),
                                 def.template_params.end()) != chains.end()) {
            continue;
          }
          for (const std::string& key : resolve_type(ix_, "", p.type)) {
            Group g;
            g.classes.insert(key);
            g.bodies.insert(&def);
            groups_.push_back(std::move(g));
          }
        }
      }
    }
  }

  /// Adds the definitions of member function `name` on `key` — and on any
  /// derived class overriding it (virtual dispatch) — to the group.
  bool attach_member_fn(Group& g, const std::string& key, const std::string& name) {
    bool changed = false;
    std::set<std::string> targets{key};
    collect_derived(ix_, key, targets);
    for (const std::string& t : targets) {
      if (t != key && !declares_member_fn(ix_, t, name)) continue;
      for (const FunctionDef* def : defs_of(t, name)) {
        changed |= g.bodies.insert(def).second;
      }
      if (declares_member_fn(ix_, t, name)) changed |= g.classes.insert(t).second;
    }
    return changed;
  }

  /// The class key whose data member `name` an unqualified mention inside
  /// `def` refers to — the enclosing class, if it declares one (exempted or
  /// not). nullopt for free functions and for names the owner lacks.
  [[nodiscard]] std::optional<std::string> owning_class_of(const FunctionDef* def,
                                                           const std::string& name) const {
    if (def->class_name.empty()) return std::nullopt;
    for (const std::string& key : resolve_type(ix_, "", def->class_name)) {
      const auto it = ix_.by_key.find(key);
      if (it == ix_.by_key.end()) continue;
      for (const ClassRef& ref : it->second) {
        for (const MemberDecl& m : ref.info->members) {
          if (m.name == name) return key;
        }
      }
    }
    return std::nullopt;
  }

  bool scan_body(Group& g, const FunctionDef* def) {
    const TranslationUnit* unit = ix_.def_unit.at(def);
    const std::vector<Token>& toks = unit->src.tokens;
    bool changed = false;

    // identifier union
    for (std::size_t i = def->body_begin; i < def->body_end && i < toks.size(); ++i) {
      if (toks[i].kind == TokKind::kIdentifier) {
        changed |= g.idents.insert(toks[i].text).second;
      }
    }

    // typed parameters of this body
    std::map<std::string, std::string> vars;
    for (const ParamDecl& p : def->params) {
      if (p.name.empty()) continue;
      if (p.type.find("StateWriter") != std::string::npos ||
          p.type.find("StateReader") != std::string::npos) {
        continue;
      }
      const auto keys = resolve_type(ix_, def->class_name, p.type);
      if (keys.size() == 1) vars[p.name] = keys.front();
    }

    // member-access chains: var.f / var->f / member_.f / member_->f
    for (std::size_t i = def->body_begin; i + 1 < def->body_end && i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdentifier) continue;
      std::size_t next = 0;
      if (toks[i + 1].text == ".") {
        next = i + 2;
      } else if (toks[i + 1].text == "-" && i + 2 < toks.size() && toks[i + 2].text == ">") {
        next = i + 3;
      } else {
        continue;
      }
      std::string cur;
      if (const auto v = vars.find(toks[i].text); v != vars.end()) {
        cur = v->second;
      } else if (const auto owner = owning_class_of(def, toks[i].text); owner.has_value()) {
        // Unqualified member access in a member-function body binds to the
        // enclosing class, never to whichever group class happens to share
        // the member name (Simulator::queue_ vs DegradationService::queue_).
        // A skip-exempted member leaves `cur` empty: the chain is opaque.
        std::string type;
        if (has_data_member(ix_, *owner, toks[i].text, &type)) {
          const auto keys = resolve_type(ix_, *owner, type);
          if (keys.size() == 1) cur = keys.front();
        }
      } else {
        for (const std::string& key : g.classes) {
          std::string type;
          if (has_data_member(ix_, key, toks[i].text, &type)) {
            const auto keys = resolve_type(ix_, key, type);
            if (keys.size() == 1) cur = keys.front();
            break;
          }
        }
      }
      while (!cur.empty() && next < toks.size() && next < def->body_end &&
             toks[next].kind == TokKind::kIdentifier) {
        const std::string& field = toks[next].text;
        if (declares_member_fn(ix_, cur, field)) {
          changed |= g.classes.insert(cur).second;
          changed |= attach_member_fn(g, cur, field);
          break;
        }
        std::string type;
        if (!has_data_member(ix_, cur, field, &type)) break;
        changed |= g.classes.insert(cur).second;
        const auto keys = resolve_type(ix_, cur, type);
        if (keys.size() != 1) break;
        cur = keys.front();
        if (next + 1 < toks.size() && toks[next + 1].text == ".") {
          next += 2;
        } else if (next + 2 < toks.size() && toks[next + 1].text == "-" &&
                   toks[next + 2].text == ">") {
          next += 3;
        } else {
          break;
        }
      }
    }
    return changed;
  }

  void close_group(Group& g) {
    bool changed = true;
    while (changed) {
      changed = false;
      const std::vector<const FunctionDef*> bodies{g.bodies.begin(), g.bodies.end()};
      for (const FunctionDef* def : bodies) changed |= scan_body(g, def);
      // Deliberately no name-only member-type join: a type enters the group
      // only as a root or through an actual access chain in a serialization
      // body. Name-mention joins drag pure config structs (scenario inputs,
      // rebuilt on restore) into coverage and bury real drift in noise.
    }
  }

  void evaluate(std::vector<Finding>& findings) const {
    struct Verdict {
      const TranslationUnit* unit;
      const MemberDecl* member;
      std::string cls;
      bool covered{false};
    };
    std::map<std::string, Verdict> verdicts;
    for (const Group& g : groups_) {
      for (const std::string& key : g.classes) {
        const auto it = ix_.by_key.find(key);
        if (it == ix_.by_key.end()) continue;
        for (const ClassRef& ref : it->second) {
          for (const MemberDecl& m : ref.info->members) {
            const std::string id =
                ref.unit->path + ":" + std::to_string(m.line) + ":" + key + "::" + m.name;
            auto [v, inserted] = verdicts.try_emplace(id, Verdict{ref.unit, &m, key, false});
            (void)inserted;
            v->second.covered |= m.ckpt_skip || g.idents.contains(m.name);
          }
        }
      }
    }
    for (const auto& [id, v] : verdicts) {
      if (v.covered) continue;
      add_finding(findings, "K1", v.unit->path, v.member->line, 1,
                  v.cls + "::" + v.member->name +
                      " is reachable from a checkpoint root but never serialized: write it "
                      "through state_codec in the checkpoint/restore path, or exempt it with "
                      "`// blam-ckpt: skip -- <reason>` if it is rebuilt on restore");
    }
  }
};

// ---------------------------------------------------------------------------
// S2: shard-state escape.
// ---------------------------------------------------------------------------

[[nodiscard]] const char* static_kind_name(StaticDecl::Kind kind) {
  switch (kind) {
    case StaticDecl::Kind::kGlobal: return "namespace-scope variable";
    case StaticDecl::Kind::kNamespaceStatic: return "namespace-scope static";
    case StaticDecl::Kind::kFunctionLocal: return "function-local static";
    case StaticDecl::Kind::kClassStatic: return "static data member";
  }
  return "static";
}

void rule_s2(const Project& project, std::vector<Finding>& findings) {
  std::string root;
  for (const TranslationUnit& unit : project.units) {
    if (ends_with(unit.path, "src/sim/shard_engine.cpp")) root = unit.path;
  }
  if (root.empty()) return;  // nothing shard-reachable in this file set
  const std::vector<std::string> closure = include_closure(project, root);
  const std::set<std::string> in_closure{closure.begin(), closure.end()};
  for (const TranslationUnit& unit : project.units) {
    if (!in_closure.contains(unit.path) || !analyzed(unit)) continue;
    for (const StaticDecl& s : unit.statics) {
      if (s.is_const || s.is_atomic || s.shared_annotated) continue;
      std::string message = std::string{"mutable "} + static_kind_name(s.kind) + " '" + s.name +
                            "' is reachable from the shard workers (include closure of "
                            "src/sim/shard_engine.cpp): shared mutable state breaks cross-shard "
                            "determinism; make it const or std::atomic, or annotate "
                            "`// blam-shared: <sync mechanism> -- <reason>`";
      if (s.is_thread_local) {
        message += " (thread_local is not enough: one worker thread serves many shards)";
      }
      add_finding(findings, "S2", unit.path, s.line, 1, std::move(message));
    }
  }
}

// ---------------------------------------------------------------------------
// R1: RNG-salt registry.
// ---------------------------------------------------------------------------

[[nodiscard]] std::optional<std::uint64_t> parse_literal(const std::string& text) {
  std::string digits;
  for (const char c : text) {
    if (c == '\'') continue;
    digits += c;
  }
  while (!digits.empty()) {
    const char c = digits.back();
    if (c == 'u' || c == 'U' || c == 'l' || c == 'L' || c == 'z' || c == 'Z') {
      digits.pop_back();
    } else {
      break;
    }
  }
  if (digits.empty()) return std::nullopt;
  try {
    std::size_t used = 0;
    const std::uint64_t value = std::stoull(digits, &used, 0);
    if (used != digits.size()) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

struct SaltRegistry {
  bool present{false};
  std::map<std::uint64_t, std::string> by_value;
};

[[nodiscard]] SaltRegistry parse_salt_registry(const Project& project,
                                               std::vector<Finding>& findings) {
  SaltRegistry reg;
  for (const TranslationUnit& unit : project.units) {
    if (!is_rng_authority(unit.path) || !ends_with(unit.path, ".hpp")) continue;
    const std::vector<Token>& toks = unit.src.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].text != "namespace" || toks[i + 1].text != "salt" || toks[i + 2].text != "{") {
        continue;
      }
      reg.present = true;
      int depth = 0;
      for (std::size_t j = i + 2; j < toks.size(); ++j) {
        if (toks[j].text == "{") ++depth;
        if (toks[j].text == "}" && --depth == 0) break;
        if (toks[j].text != "=" || j < 1 || j + 2 >= toks.size()) continue;
        if (toks[j - 1].kind != TokKind::kIdentifier ||
            toks[j + 1].kind != TokKind::kNumber || toks[j + 2].text != ";") {
          continue;
        }
        const auto value = parse_literal(toks[j + 1].text);
        if (!value.has_value()) continue;
        const auto [it, inserted] = reg.by_value.try_emplace(*value, toks[j - 1].text);
        if (!inserted) {
          add_finding(findings, "R1", unit.path, toks[j - 1].line, toks[j - 1].col,
                      "duplicate salt value " + toks[j + 1].text + ": '" + toks[j - 1].text +
                          "' collides with '" + it->second +
                          "'; two forks with the same salt draw identical streams");
        }
      }
    }
  }
  return reg;
}

void rule_r1(const Project& project, std::vector<Finding>& findings) {
  SaltRegistry reg = parse_salt_registry(project, findings);
  for (const TranslationUnit& unit : project.units) {
    if (!in_dir(unit.path, "src") || !analyzed(unit) || is_rng_authority(unit.path)) continue;
    const std::vector<Token>& toks = unit.src.tokens;
    std::set<std::size_t> flagged;

    const auto flag_literal = [&](std::size_t idx, const std::string& context) {
      if (!flagged.insert(idx).second) return;
      const auto value = parse_literal(toks[idx].text);
      std::string message;
      if (value.has_value() && reg.by_value.contains(*value)) {
        message = "literal salt " + toks[idx].text + " in " + context + " is registered as salt::" +
                  reg.by_value.at(*value) + "; spell it as blam::salt::" + reg.by_value.at(*value);
      } else if (reg.present) {
        message = "unregistered literal salt " + toks[idx].text + " in " + context +
                  "; add a named constant to the salt registry in src/common/rng.hpp and use it";
      } else {
        message = "literal salt " + toks[idx].text + " in " + context +
                  "; src/common/rng.hpp has no salt registry (namespace salt) to register it in";
      }
      add_finding(findings, "R1", unit.path, toks[idx].line, toks[idx].col, std::move(message));
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
      // rng.fork(<literal>)
      if (i + 2 < toks.size() && toks[i].kind == TokKind::kIdentifier && toks[i].text == "fork" &&
          toks[i + 1].text == "(" && toks[i + 2].kind == TokKind::kNumber) {
        flag_literal(i + 2, "Rng::fork");
      }
      // Rng name{seed, <literal>} / Rng{seed, <literal>} — the stream salt
      // of a direct construction.
      if (toks[i].kind == TokKind::kIdentifier && toks[i].text == "Rng" &&
          (i == 0 || (toks[i - 1].text != "class" && toks[i - 1].text != "::"))) {
        std::size_t j = i + 1;
        if (j < toks.size() && toks[j].kind == TokKind::kIdentifier) ++j;
        if (j < toks.size() && (toks[j].text == "{" || toks[j].text == "(")) {
          const std::string close = toks[j].text == "{" ? "}" : ")";
          const std::string open = toks[j].text;
          int depth = 0;
          std::size_t arg = 0;
          bool at_arg_start = true;
          for (std::size_t k = j; k < toks.size(); ++k) {
            const std::string& x = toks[k].text;
            if (x == open || x == "(" || x == "{" || x == "[") ++depth;
            if (x == close || x == ")" || x == "}" || x == "]") {
              if (--depth == 0) break;
              continue;
            }
            if (depth == 1 && x == ",") {
              ++arg;
              at_arg_start = true;
              continue;
            }
            if (depth == 1 && at_arg_start) {
              if (arg >= 1 && toks[k].kind == TokKind::kNumber) {
                flag_literal(k, "Rng{seed, stream} construction");
              }
              at_arg_start = false;
            }
          }
        }
      }
      // A hex literal respelling a registered salt outside the registry.
      // Values below 0x100 are excluded: byte masks (0x00, 0xff) are
      // everywhere and are never stream salts in disguise.
      if (toks[i].kind == TokKind::kNumber &&
          (toks[i].text.rfind("0x", 0) == 0 || toks[i].text.rfind("0X", 0) == 0)) {
        const auto value = parse_literal(toks[i].text);
        if (value.has_value() && *value >= 0x100 && reg.by_value.contains(*value) &&
            !flagged.contains(i)) {
          flagged.insert(i);
          add_finding(findings, "R1", unit.path, toks[i].line, toks[i].col,
                      "hex literal " + toks[i].text + " respells registered salt salt::" +
                          reg.by_value.at(*value) + "; use the named constant so the stream "
                          "derivation stays greppable");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// N1: no consumer.
// ---------------------------------------------------------------------------

/// Names the language or the standard library calls without spelling them
/// at the call site: range-for (`begin`/`end`), ADL `swap`, structured
/// bindings (`get`, `tuple_size`, `tuple_element`) and the unordered
/// containers (`hash`).
[[nodiscard]] bool called_implicitly(const std::string& name) {
  static const std::set<std::string> kImplicit = {"begin", "end",        "swap",         "get",
                                                  "hash",  "tuple_size", "tuple_element"};
  return kImplicit.contains(name);
}

[[nodiscard]] bool is_header(const std::string& path) {
  return ends_with(path, ".hpp") || ends_with(path, ".h");
}

/// Token ranges [begin, end) of one unit that count as a name's own
/// declaration or definition.
using OwnRanges = std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>>;

struct NameUses {
  bool consumed{false};  // a use in src/ or a consumer directory
  std::string test_path;  // first tests/ unit using the name
};

void rule_n1(const Project& project, std::vector<Finding>& findings) {
  // Every name declared in an analyzed unit is looked up; only src/ header
  // declarations can be findings. A name's own sites are its declaration
  // tokens, a class's body and its members' out-of-class definitions, and a
  // function's definitions (a recursive call is no consumer).
  std::set<std::string> names;
  std::map<const TranslationUnit*, std::set<std::size_t>> decl_tokens;
  std::map<const TranslationUnit*, OwnRanges> own;
  for (const TranslationUnit& unit : project.units) {
    if (!analyzed(unit)) continue;
    for (const ApiDecl& api : unit.api) {
      names.insert(api.name);
      decl_tokens[&unit].insert(api.token);
    }
    for (const ClassInfo& cls : unit.classes) {
      own[&unit][last_component(cls.name)].emplace_back(cls.body_begin, cls.body_end);
    }
    for (const FunctionDef& def : unit.functions) {
      decl_tokens[&unit].insert(def.name_token);
      own[&unit][def.name].emplace_back(def.body_begin, def.body_end);
      if (!def.class_name.empty()) {
        own[&unit][last_component(def.class_name)].emplace_back(def.decl_begin, def.body_end);
      }
    }
  }

  std::map<std::string, NameUses> uses;
  for (const TranslationUnit& unit : project.units) {
    const Role role = role_of(unit.path);
    const std::vector<Token>& toks = unit.src.tokens;
    const std::set<std::size_t>* decls =
        decl_tokens.contains(&unit) ? &decl_tokens.at(&unit) : nullptr;
    const OwnRanges* ranges = own.contains(&unit) ? &own.at(&unit) : nullptr;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdentifier || !names.contains(toks[i].text)) continue;
      const std::string& name = toks[i].text;
      if (decls != nullptr && decls->contains(i)) continue;
      // `std::fill` is the library's name, not the project's.
      if (i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "std") continue;
      // A forward declaration (`class Foo;`) declares; it does not use.
      if (i >= 1 && i + 1 < toks.size() && toks[i + 1].text == ";" &&
          (toks[i - 1].text == "class" || toks[i - 1].text == "struct" ||
           toks[i - 1].text == "union")) {
        continue;
      }
      if (ranges != nullptr) {
        const auto it = ranges->find(name);
        if (it != ranges->end() &&
            std::any_of(it->second.begin(), it->second.end(),
                        [i](const auto& r) { return i >= r.first && i < r.second; })) {
          continue;
        }
      }
      NameUses& u = uses[name];
      if (role == Role::kTest) {
        if (u.test_path.empty()) u.test_path = unit.path;
      } else {
        u.consumed = true;
      }
    }
  }

  for (const TranslationUnit& unit : project.units) {
    if (!analyzed(unit) || !in_dir(unit.path, "src") || !is_header(unit.path)) continue;
    for (const ApiDecl& api : unit.api) {
      // Constructors and destructors are called by the language, as are
      // operators (never recorded) and the names in called_implicitly().
      if (api.name == last_component(api.owner) && api.kind == ApiDecl::Kind::kFunction) continue;
      if (called_implicitly(api.name)) continue;
      const NameUses& u = uses[api.name];
      if (u.consumed) continue;
      const Token& at = unit.src.tokens[api.token];
      const std::string what = api.owner.empty() ? api.name : api.owner + "::" + api.name;
      if (!u.test_path.empty()) {
        add_finding(findings, "N1", unit.path, at.line, at.col,
                    "test-only API: " + what + " is used only by tests (" + u.test_path +
                        "); delete it, or give it a consumer in src/, bench/, examples/, "
                        "perfbench/ or tools/");
      } else {
        add_finding(findings, "N1", unit.path, at.line, at.col,
                    "unused: " + what + " has no use outside its own declaration and "
                                        "definitions; delete it");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A1 + suppressions (the blam-lint semantics under this tool's marker).
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
                     [&id](const lint::RuleInfo& r) { return r.id == id && r.id != "A1"; });
}

void parse_suppressions(const TranslationUnit& unit, std::vector<Suppression>& sups,
                        std::vector<Finding>& findings) {
  static constexpr std::string_view kMarker = "blam-analyze:";
  for (const lint::Comment& c : unit.src.comments) {
    const std::size_t mark = c.text.find(kMarker);
    if (mark == std::string::npos) continue;
    std::string rest = c.text.substr(mark + kMarker.size());
    const std::size_t allow = rest.find("allow(");
    const std::size_t close = rest.find(')', allow == std::string::npos ? 0 : allow);
    if (allow == std::string::npos || close == std::string::npos) {
      add_finding(findings, "A1", unit.path, c.line, 1,
                  "malformed suppression: expected `blam-analyze: allow(RULE[,RULE...]) "
                  "-- reason`");
      continue;
    }
    Suppression sup;
    std::stringstream list{rest.substr(allow + 6, close - allow - 6)};
    std::string id;
    bool ok = true;
    while (std::getline(list, id, ',')) {
      id = detail::trim(id);
      if (id.empty()) continue;
      if (!known_rule(id)) {
        add_finding(findings, "A1", unit.path, c.line, 1,
                    "suppression names unknown rule '" + id + "'");
        ok = false;
        break;
      }
      sup.rules.insert(id);
    }
    if (!ok) continue;
    if (sup.rules.empty()) {
      add_finding(findings, "A1", unit.path, c.line, 1, "suppression allows no rules");
      continue;
    }
    const std::size_t dash = rest.find("--", close);
    const std::string reason =
        dash == std::string::npos ? std::string{} : detail::trim(rest.substr(dash + 2));
    if (reason.empty()) {
      add_finding(findings, "A1", unit.path, c.line, 1,
                  "suppression has no justification: add `-- <reason>`");
      continue;
    }
    sup.reason = reason;
    sup.first_line = c.own_line ? c.line + 1 : c.line;
    sup.last_line = sup.first_line;
    sups.push_back(std::move(sup));
  }
}

}  // namespace

const std::vector<lint::RuleInfo>& rule_infos() {
  static const std::vector<lint::RuleInfo> kInfos = {
      {"K1", "checkpoint coverage: unserialized data member on a checkpoint-reachable type"},
      {"S2", "shard-state escape: mutable static/global reachable from shard_engine.cpp"},
      {"R1", "RNG-salt registry: literal fork/stream salts must come from blam::salt"},
      {"N1", "no consumer: src/ header declaration used only by tests/, or by nothing"},
      {"A1", "malformed blam-ckpt/blam-shared/allow annotation (not itself suppressible)"},
  };
  return kInfos;
}

std::vector<std::string> include_closure(const Project& project, const std::string& root_path) {
  std::map<std::string, const TranslationUnit*> by_path;
  for (const TranslationUnit& unit : project.units) by_path[unit.path] = &unit;

  const auto resolve = [&by_path](const std::string& includer,
                                  const std::string& target) -> std::string {
    for (const auto& [path, unit] : by_path) {
      (void)unit;
      if (path == "src/" + target || ends_with(path, "/src/" + target)) return path;
    }
    const std::size_t slash = includer.rfind('/');
    if (slash != std::string::npos) {
      const std::string sibling = includer.substr(0, slash + 1) + target;
      if (by_path.contains(sibling)) return sibling;
    }
    return by_path.contains(target) ? target : std::string{};
  };

  std::string root;
  for (const auto& [path, unit] : by_path) {
    (void)unit;
    if (path == root_path || ends_with(path, "/" + root_path)) root = path;
  }
  if (root.empty()) return {};

  std::set<std::string> visited;
  std::vector<std::string> queue{root};
  while (!queue.empty()) {
    const std::string path = queue.back();
    queue.pop_back();
    if (!visited.insert(path).second) continue;
    const TranslationUnit* unit = by_path.at(path);
    for (const IncludeDecl& inc : unit->includes) {
      if (!inc.quoted) continue;
      const std::string hit = resolve(path, inc.target);
      if (!hit.empty() && !visited.contains(hit)) queue.push_back(hit);
    }
    // A closure header's same-stem .cpp runs inside the shard workers even
    // though nothing #includes it: pair it in.
    for (const std::string_view ext : {".hpp", ".h"}) {
      if (!ends_with(path, ext)) continue;
      const std::string sibling = path.substr(0, path.size() - ext.size()) + ".cpp";
      if (by_path.contains(sibling) && !visited.contains(sibling)) queue.push_back(sibling);
    }
  }
  return {visited.begin(), visited.end()};
}

std::vector<lint::Finding> analyze_project(const Project& project) {
  std::vector<Finding> findings;
  const Indexes ix = build_indexes(project);

  K1Engine k1{project, ix};
  k1.run(findings);
  rule_s2(project, findings);
  rule_r1(project, findings);
  rule_n1(project, findings);

  std::map<std::string, std::vector<Suppression>> sups_by_path;
  for (const TranslationUnit& unit : project.units) {
    if (!analyzed(unit)) continue;
    for (const detail::AnnotationIssue& issue : detail::parse_annotations(unit.src).issues) {
      add_finding(findings, "A1", unit.path, issue.line, 1, issue.message);
    }
    parse_suppressions(unit, sups_by_path[unit.path], findings);
  }

  for (Finding& f : findings) {
    if (f.rule == "A1") continue;
    const auto it = sups_by_path.find(f.path);
    if (it == sups_by_path.end()) continue;
    for (const Suppression& sup : it->second) {
      if (f.line >= sup.first_line && f.line <= sup.last_line && sup.rules.contains(f.rule)) {
        f.suppressed = true;
        f.suppress_reason = sup.reason;
        break;
      }
    }
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    if (a.col != b.col) return a.col < b.col;
    return a.rule < b.rule;
  });
  return findings;
}

}  // namespace blam::analyze
