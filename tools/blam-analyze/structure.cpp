// Structure pass: turns one tokenized TU into symbol tables the cross-file
// rules consume. This is a declaration-level scanner, not a C++ parser: it
// walks namespace/class scopes, records data members, function definitions
// (with body token ranges), statics/globals, and `#include` targets, and it
// deliberately never descends into statement grammar — function bodies are
// skipped as balanced-brace blobs (a separate pass fishes `static` locals
// out of them). Tolerance beats precision here: on anything it cannot
// classify it skips to the next `;`/`}` rather than derailing.
#include <algorithm>
#include <array>
#include <cctype>
#include <set>
#include <string>
#include <utility>

#include "blam-analyze/analyze.hpp"
#include "blam-analyze/annotations.hpp"

namespace blam::analyze {

namespace detail {

std::string trim(std::string s) {
  const auto not_space = [](unsigned char ch) { return std::isspace(ch) == 0; };
  s.erase(s.begin(), std::find_if(s.begin(), s.end(), not_space));
  s.erase(std::find_if(s.rbegin(), s.rend(), not_space).base(), s.end());
  return s;
}

Annotations parse_annotations(const lint::TokenizedSource& src) {
  Annotations out;
  for (const lint::Comment& c : src.comments) {
    const int target = c.own_line ? c.line + 1 : c.line;

    if (const std::size_t mark = c.text.find("blam-ckpt:"); mark != std::string::npos) {
      std::string rest = trim(c.text.substr(mark + 10));
      if (rest.rfind("skip", 0) != 0) {
        out.issues.push_back(
            {c.line, "malformed blam-ckpt annotation: expected `blam-ckpt: skip -- <reason>`"});
      } else {
        const std::size_t dash = rest.find("--", 4);
        const std::string reason =
            dash == std::string::npos ? std::string{} : trim(rest.substr(dash + 2));
        if (reason.empty()) {
          out.issues.push_back(
              {c.line, "blam-ckpt exemption has no justification: add `-- <reason>`"});
        } else {
          out.ckpt[target] = CkptSkip{reason};
        }
      }
    }

    if (const std::size_t mark = c.text.find("blam-shared:"); mark != std::string::npos) {
      const std::string rest = c.text.substr(mark + 12);
      const std::size_t dash = rest.find("--");
      const std::string mechanism =
          trim(dash == std::string::npos ? rest : rest.substr(0, dash));
      const std::string reason =
          dash == std::string::npos ? std::string{} : trim(rest.substr(dash + 2));
      if (mechanism.empty() || reason.empty()) {
        out.issues.push_back({c.line,
                              "malformed blam-shared annotation: expected `blam-shared: "
                              "<sync mechanism> -- <reason>`"});
      } else {
        out.shared[target] = SharedNote{mechanism, reason};
      }
    }
  }
  return out;
}

}  // namespace detail

namespace {

using lint::TokKind;
using lint::Token;

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

[[nodiscard]] bool is_qual_keyword(const std::string& t) {
  static constexpr std::array<std::string_view, 12> kQuals = {
      "static",   "const",  "constexpr", "mutable",      "inline",   "extern",
      "volatile", "friend", "virtual",   "thread_local", "explicit", "typename"};
  return std::find(kQuals.begin(), kQuals.end(), t) != kQuals.end();
}

/// Identifiers that a `(` may follow without opening a parameter list.
[[nodiscard]] bool is_paren_keyword(const std::string& t) {
  static constexpr std::array<std::string_view, 9> kKw = {
      "alignas", "decltype", "noexcept", "sizeof", "if", "while", "for", "switch", "return"};
  return std::find(kKw.begin(), kKw.end(), t) != kKw.end();
}

/// Renders a token range as a compact type string ("std::optional<Foo>").
[[nodiscard]] std::string join_tokens(const std::vector<Token>& toks, std::size_t begin,
                                      std::size_t end) {
  std::string out;
  std::string prev;
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    const std::string& x = toks[i].text;
    if (is_qual_keyword(x)) continue;
    const bool tight_prev = prev == "::" || prev == "<" || prev == "(" || prev == "[" ||
                            prev == "*" || prev == "&" || prev == "~" || prev.empty();
    const bool tight_cur = x == "::" || x == "<" || x == ">" || x == "," || x == "*" ||
                           x == "&" || x == "(" || x == ")" || x == "[" || x == "]";
    if (!out.empty() && !tight_prev && !tight_cur) out += ' ';
    if (x == ",") {
      out += ", ";
      prev = "<";  // next token joins tightly after the comma-space
      continue;
    }
    out += x;
    prev = x;
  }
  return out;
}

class StructureParser {
 public:
  StructureParser(TranslationUnit& unit, const detail::Annotations& notes)
      : toks_{unit.src.tokens}, unit_{unit}, notes_{notes} {}

  void run() {
    parse_decl_seq(nullptr);
    collect_function_local_statics();
  }

 private:
  const std::vector<Token>& toks_;
  TranslationUnit& unit_;
  const detail::Annotations& notes_;
  std::size_t i_{0};
  /// Names the last `template <...>` header declared, for the declaration
  /// that follows it.
  std::vector<std::string> template_params_;

  [[nodiscard]] bool done() const { return i_ >= toks_.size(); }

  [[nodiscard]] const Token& tok(std::size_t ahead = 0) const {
    static const Token kEof{TokKind::kPunct, "", 0, 0};
    return i_ + ahead < toks_.size() ? toks_[i_ + ahead] : kEof;
  }

  [[nodiscard]] bool at(std::string_view text) const { return tok().text == text; }

  [[nodiscard]] bool at_ident(std::string_view text) const {
    return tok().kind == TokKind::kIdentifier && tok().text == text;
  }

  /// Consumes a balanced group; the current token must be `open`. Stops at
  /// EOF gracefully.
  void skip_group(std::string_view open, std::string_view close) {
    int depth = 0;
    while (!done()) {
      if (at(open)) ++depth;
      if (at(close) && --depth == 0) {
        ++i_;
        return;
      }
      ++i_;
    }
  }

  /// Consumes `< ... >` template arguments (nested angles; parenthesised
  /// sub-expressions skipped wholesale). Bails without consuming the
  /// terminator if `;`, `{` or `}` appears at angle depth — the `<` was a
  /// comparison, not a template argument list.
  void skip_angles() {
    int depth = 0;
    while (!done()) {
      if (at("(")) {
        skip_group("(", ")");
        continue;
      }
      if (at(";") || at("{") || at("}")) return;
      if (at("<")) ++depth;
      if (at(">") && --depth == 0) {
        ++i_;
        return;
      }
      ++i_;
    }
  }

  /// Consumes a `template <...>` parameter list and returns the names it
  /// declares: the last identifier of each top-level parameter before its
  /// default (`typename Row` -> Row, `std::size_t N = 4` -> N).
  std::vector<std::string> parse_template_params() {
    const std::size_t open = i_;
    skip_angles();
    std::vector<std::string> names;
    std::string last;
    bool in_default = false;
    int depth = 0;
    for (std::size_t j = open; j < i_; ++j) {
      const std::string& x = toks_[j].text;
      if (x == "<" || x == ">") depth += x == "<" ? 1 : -1;
      if (depth != 1 || x == "<") continue;
      if (x == ",") {
        if (!last.empty()) names.push_back(std::exchange(last, {}));
        in_default = false;
      } else if (x == "=") {
        in_default = true;
      } else if (!in_default && toks_[j].kind == TokKind::kIdentifier && x != "typename" &&
                 x != "class") {
        last = x;
      }
    }
    if (!last.empty()) names.push_back(last);
    return names;
  }

  /// Consumes to the `;` ending the current statement, matching brackets.
  void skip_statement() {
    while (!done()) {
      if (at(";")) {
        ++i_;
        return;
      }
      if (at("}")) return;  // scope closer: leave it for the caller
      if (at("{")) {
        skip_group("{", "}");
        continue;
      }
      if (at("(")) {
        skip_group("(", ")");
        continue;
      }
      ++i_;
    }
  }

  void skip_attributes() {
    while (at("[") && tok(1).text == "[") {
      ++i_;
      skip_group("[", "]");
      if (at("]")) ++i_;
    }
  }

  /// Declaration/definition sequence inside a namespace (`cls == nullptr`)
  /// or class body (`cls != nullptr`). Consumes the closing `}` of the
  /// scope, if any.
  void parse_decl_seq(ClassInfo* cls) {
    while (!done()) {
      if (at("}")) {
        ++i_;
        return;
      }
      if (at(";")) {
        ++i_;
        continue;
      }
      skip_attributes();
      if (tok().kind == TokKind::kIdentifier) {
        const std::string& kw = tok().text;
        if (kw == "namespace") {
          parse_namespace();
          continue;
        }
        if (kw == "inline" && tok(1).text == "namespace") {
          ++i_;
          parse_namespace();
          continue;
        }
        if (kw == "template") {
          ++i_;
          if (at("<")) template_params_ = parse_template_params();
          continue;  // the templated declaration parses normally
        }
        if (kw == "using" || kw == "typedef" || kw == "static_assert" || kw == "friend") {
          template_params_.clear();  // an alias or friend template's names end here
          if (kw == "using" && tok(1).kind == TokKind::kIdentifier && tok(2).text == "=") {
            add_api(ApiDecl::Kind::kAlias, i_ + 1, key_of(cls));
          }
          skip_statement();
          continue;
        }
        if ((kw == "public" || kw == "private" || kw == "protected") && tok(1).text == ":") {
          i_ += 2;
          continue;
        }
        if (kw == "extern" && tok(1).kind == TokKind::kString) {
          i_ += 2;
          if (at("{")) {
            ++i_;
            parse_decl_seq(cls);
          }
          continue;
        }
        if (kw == "enum") {
          parse_enum(cls);
          continue;
        }
        if ((kw == "class" || kw == "struct" || kw == "union") && class_definition_ahead()) {
          parse_class(cls);
          continue;
        }
      }
      parse_declaration(cls);
    }
  }

  [[nodiscard]] static std::string key_of(const ClassInfo* cls) {
    return cls != nullptr ? cls->name : std::string{};
  }

  void add_api(ApiDecl::Kind kind, std::size_t token, std::string owner) {
    unit_.api.push_back(ApiDecl{kind, toks_[token].text, std::move(owner), token});
  }

  /// `enum [class|struct] [Name] [: base] { A [= x], B, ... } [declarators];`
  /// records the enum and its enumerators.
  void parse_enum(const ClassInfo* cls) {
    ++i_;  // `enum`
    if (at_ident("class") || at_ident("struct")) ++i_;
    skip_attributes();
    std::string name;
    if (tok().kind == TokKind::kIdentifier) {
      name = tok().text;
      add_api(ApiDecl::Kind::kEnum, i_, key_of(cls));
    }
    while (!done() && !at("{") && !at(";")) ++i_;
    if (at("{")) {
      const std::string owner = name.empty() ? key_of(cls) : name;
      bool expect_name = true;
      int depth = 0;
      while (!done()) {
        if (at("{") || at("(")) ++depth;
        if ((at("}") || at(")")) && --depth == 0) {
          ++i_;
          break;
        }
        if (depth == 1 && at(",")) expect_name = true;
        if (depth == 1 && expect_name && tok().kind == TokKind::kIdentifier) {
          add_api(ApiDecl::Kind::kEnumerator, i_, owner);
          expect_name = false;
        }
        ++i_;
      }
    }
    skip_statement();
  }

  void parse_namespace() {
    ++i_;  // `namespace`
    while (!done() && !at("{") && !at(";") && !at("=")) ++i_;
    if (at("{")) {
      ++i_;
      parse_decl_seq(nullptr);
      return;
    }
    skip_statement();  // alias or weirdness
  }

  /// After `class`/`struct`/`union`: is a definition body coming (vs a
  /// forward declaration or an elaborated-type specifier in a declaration)?
  [[nodiscard]] bool class_definition_ahead() const {
    std::size_t j = i_ + 1;
    // attributes
    while (j + 1 < toks_.size() && toks_[j].text == "[" && toks_[j + 1].text == "[") {
      int depth = 0;
      for (; j < toks_.size(); ++j) {
        if (toks_[j].text == "[") ++depth;
        if (toks_[j].text == "]" && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    if (j < toks_.size() && toks_[j].text == "{") return true;  // anonymous
    // name: ident (:: ident)*
    if (j >= toks_.size() || toks_[j].kind != TokKind::kIdentifier) return false;
    ++j;
    while (j + 1 < toks_.size() && toks_[j].text == "::" &&
           toks_[j + 1].kind == TokKind::kIdentifier) {
      j += 2;
    }
    if (j < toks_.size() && toks_[j].kind == TokKind::kIdentifier && toks_[j].text == "final") {
      ++j;
    }
    return j < toks_.size() && (toks_[j].text == "{" || toks_[j].text == ":");
  }

  void parse_class(ClassInfo* parent) {
    template_params_.clear();
    const bool is_struct = !at("class");
    const int decl_line = tok().line;
    ++i_;
    skip_attributes();
    std::string name;
    std::size_t name_token = kNone;
    if (tok().kind == TokKind::kIdentifier) {
      name = tok().text;
      name_token = i_;
      ++i_;
      while (at("::") && tok(1).kind == TokKind::kIdentifier) {
        name += "::" + tok(1).text;
        name_token = i_ + 1;
        i_ += 2;
      }
    }
    if (at_ident("final")) ++i_;

    std::vector<std::string> bases;
    if (at(":")) {
      ++i_;
      std::string cur;
      while (!done() && !at("{") && !at(";")) {
        const Token& t = tok();
        if (t.text == ",") {
          if (!cur.empty()) bases.push_back(cur);
          cur.clear();
          ++i_;
          continue;
        }
        if (t.kind == TokKind::kIdentifier &&
            (t.text == "public" || t.text == "private" || t.text == "protected" ||
             t.text == "virtual")) {
          ++i_;
          continue;
        }
        if (t.text == "<") {
          skip_angles();  // base template arguments do not name the base
          continue;
        }
        if (t.text == "::" || t.kind == TokKind::kIdentifier) {
          cur += t.text;
          ++i_;
          continue;
        }
        ++i_;
      }
      if (!cur.empty()) bases.push_back(cur);
    }

    if (!at("{")) {
      skip_statement();
      return;
    }

    ClassInfo info;
    info.name = name.empty() ? "<anonymous@" + std::to_string(decl_line) + ">" : name;
    if (parent != nullptr) info.name = parent->name + "::" + info.name;
    info.line = decl_line;
    info.is_struct = is_struct;
    info.bases = std::move(bases);
    info.body_begin = i_;
    if (name_token != kNone) add_api(ApiDecl::Kind::kClass, name_token, key_of(parent));
    ++i_;  // `{`
    parse_decl_seq(&info);
    info.body_end = i_;
    const std::string type_name = info.name;
    unit_.classes.push_back(std::move(info));

    // `struct X { ... } member_;` — trailing declarators take the class as
    // their type (members when inside a class, globals at namespace scope).
    while (!done() && !at(";") && !at("}")) {
      if (tok().kind == TokKind::kIdentifier) {
        if (parent != nullptr) {
          add_member(parent, tok().text, type_name, tok().line, /*is_bitfield=*/false,
                     /*is_const=*/false, /*is_atomic=*/false);
        } else {
          add_static(StaticDecl::Kind::kGlobal, tok().text, type_name, tok().line,
                     /*is_const=*/false, /*is_atomic=*/false, /*is_thread_local=*/false);
        }
      }
      ++i_;
    }
  }

  void add_member(ClassInfo* cls, const std::string& name, std::string type, int line,
                  bool is_bitfield, bool is_const, bool is_atomic, int decl_start_line = 0) {
    MemberDecl m;
    m.name = name;
    m.type = std::move(type);
    m.line = line;
    m.is_bitfield = is_bitfield;
    m.is_const = is_const;
    m.is_atomic = is_atomic;
    auto note = notes_.ckpt.find(line);
    if (note == notes_.ckpt.end() && decl_start_line != 0) {
      note = notes_.ckpt.find(decl_start_line);
    }
    if (note != notes_.ckpt.end()) {
      m.ckpt_skip = true;
      m.ckpt_reason = note->second.reason;
    }
    cls->members.push_back(std::move(m));
  }

  void add_static(StaticDecl::Kind kind, const std::string& name, std::string type, int line,
                  bool is_const, bool is_atomic, bool is_thread_local, int decl_start_line = 0) {
    StaticDecl s;
    s.kind = kind;
    s.name = name;
    s.type = std::move(type);
    s.line = line;
    s.is_const = is_const;
    s.is_atomic = is_atomic;
    s.is_thread_local = is_thread_local;
    auto note = notes_.shared.find(line);
    if (note == notes_.shared.end() && decl_start_line != 0) {
      note = notes_.shared.find(decl_start_line);
    }
    if (note != notes_.shared.end()) {
      s.shared_annotated = true;
      s.shared_mechanism = note->second.mechanism;
      s.shared_reason = note->second.reason;
    }
    unit_.statics.push_back(std::move(s));
  }

  /// One declaration at class or namespace scope: a data member, a
  /// global/static variable, a function declaration, or a function
  /// definition (body recorded, contents skipped).
  void parse_declaration(ClassInfo* cls) {
    std::vector<std::string> template_params = std::exchange(template_params_, {});
    const std::size_t start = i_;
    const int start_line = tok().line;
    bool saw_static = false;
    bool saw_const = false;
    bool saw_extern = false;
    bool saw_thread_local = false;
    bool saw_atomic = false;
    bool saw_operator = false;
    std::size_t last_ident = kNone;
    std::size_t ident_count = 0;
    bool have_params = false;
    std::string fn_name;
    std::size_t fn_name_token = kNone;
    std::string fn_qualifier;
    std::vector<std::pair<std::size_t, std::size_t>> param_range;  // [open, close]
    std::vector<std::size_t> extra_names;                          // multi-declarator commas

    const auto finalize_variable = [&](bool is_bitfield) {
      if (last_ident == kNone || ident_count < 2) return;  // no type before the name
      std::vector<std::size_t> names = extra_names;
      names.push_back(last_ident);
      for (const std::size_t n : names) {
        const std::string& name = toks_[n].text;
        const std::string type = join_tokens(toks_, start, names.front());
        if (cls != nullptr && !saw_static) {
          add_member(cls, name, type, toks_[n].line, is_bitfield, saw_const, saw_atomic,
                     start_line);
        } else if (cls != nullptr) {
          add_static(StaticDecl::Kind::kClassStatic, name, type, toks_[n].line, saw_const,
                     saw_atomic, saw_thread_local, start_line);
        } else if (!saw_extern) {
          add_static(saw_static ? StaticDecl::Kind::kNamespaceStatic : StaticDecl::Kind::kGlobal,
                     name, type, toks_[n].line, saw_const, saw_atomic, saw_thread_local,
                     start_line);
          if (n >= 2 && toks_[n - 1].text == "::" && toks_[n - 2].kind == TokKind::kIdentifier) {
            StaticDecl& def = unit_.statics.back();
            def.class_name = toks_[n - 2].text;
            def.decl_begin = start;
            def.decl_end = i_;
          }
        }
      }
    };

    // Phase 1: type + declarator, until an initializer, a parameter list,
    // a bitfield width, or the terminating `;`.
    while (!done()) {
      const Token& t = tok();
      const std::string& x = t.text;
      if (t.kind == TokKind::kIdentifier) {
        if (x == "static") saw_static = true;
        if (x == "const" || x == "constexpr" || x == "constinit") saw_const = true;
        if (x == "extern") saw_extern = true;
        if (x == "thread_local") saw_thread_local = true;
        if (x == "atomic") saw_atomic = true;
        if (x == "operator") {
          saw_operator = true;
          fn_name = "operator";
          ++i_;
          // the operator symbol: puncts (or new/delete/[]/()) up to the
          // parameter list
          while (!done() && !at("(") && !at(";") && !at("{") && !at("}")) {
            fn_name += tok().text;
            ++i_;
          }
          if (at("(") && tok(1).text == ")") {
            fn_name += "()";
            i_ += 2;  // operator() — the NEXT group is the parameter list
          }
          if (at("(")) {
            const std::size_t open = i_;
            skip_group("(", ")");
            param_range.emplace_back(open, i_ - 1);
            have_params = true;
            break;  // into phase 2
          }
          continue;
        }
        // Elaborated type keywords are part of the type, not a declared
        // name — `class NetworkServer;` declares nothing.
        if (!is_qual_keyword(x) && x != "class" && x != "struct" && x != "union" && x != "enum") {
          last_ident = i_;
          ++ident_count;
        }
        ++i_;
        continue;
      }
      if (x == "::") {
        ++i_;
        continue;
      }
      if (x == "<" && i_ > start && toks_[i_ - 1].kind == TokKind::kIdentifier) {
        skip_angles();
        continue;
      }
      if (x == "(") {
        const bool callable_name = last_ident != kNone && i_ > start &&
                                   toks_[i_ - 1].kind == TokKind::kIdentifier &&
                                   !is_paren_keyword(toks_[i_ - 1].text);
        const std::size_t open = i_;
        skip_group("(", ")");
        if (callable_name && !have_params) {
          param_range.emplace_back(open, i_ - 1);
          have_params = true;
          fn_name = toks_[last_ident].text;
          fn_name_token = last_ident;
          // out-of-class qualifier: `void Node::restore_state(...)`
          std::size_t k = last_ident;
          while (k >= 2 && toks_[k - 1].text == "::" &&
                 toks_[k - 2].kind == TokKind::kIdentifier) {
            fn_qualifier =
                toks_[k - 2].text + (fn_qualifier.empty() ? "" : "::") + fn_qualifier;
            k -= 2;
          }
          if (k >= 1 && toks_[k - 1].text == "~") fn_name = "~" + fn_name;
          break;  // into phase 2
        }
        continue;
      }
      if (x == "[") {
        if (tok(1).text == "[") {
          skip_group("[", "]");
          continue;
        }
        skip_group("[", "]");  // array declarator
        continue;
      }
      if (x == "=") {
        skip_statement();
        finalize_variable(false);
        return;
      }
      if (x == "{") {  // brace initializer: `Time now_{Time::zero()};`
        skip_group("{", "}");
        skip_statement();
        finalize_variable(false);
        return;
      }
      if (x == ":") {
        // bitfield inside a class; anything else colon-shaped at namespace
        // scope is noise — skip the statement either way
        skip_statement();
        if (cls != nullptr) finalize_variable(true);
        return;
      }
      if (x == ",") {
        if (last_ident != kNone) extra_names.push_back(last_ident);
        ++i_;
        continue;
      }
      if (x == ";") {
        ++i_;
        finalize_variable(false);
        return;
      }
      if (x == "}") return;  // scope closer: malformed declaration, bail
      ++i_;
    }

    if (!have_params) return;  // EOF mid-declaration
    // A member's out-of-class definition is not a second declaration.
    if (fn_name_token != kNone && (cls != nullptr || fn_qualifier.empty())) {
      add_api(ApiDecl::Kind::kFunction, fn_name_token, key_of(cls));
    }
    const FunctionHead head{fn_qualifier, fn_name, start_line, start, fn_name_token};

    // Phase 2: after the parameter list — qualifiers, trailing return,
    // ctor-init list, then either `;` (declaration), `= ...;` (defaulted/
    // deleted/pure), or `{` (definition).
    while (!done()) {
      const std::string& x = tok().text;
      if (x == "{") {
        record_function(cls, head, param_range, saw_operator, std::move(template_params));
        return;
      }
      if (x == ";") {
        ++i_;
        if (cls != nullptr && !fn_name.empty()) cls->member_functions.push_back(fn_name);
        return;
      }
      if (x == "=") {
        skip_statement();
        if (cls != nullptr && !fn_name.empty()) cls->member_functions.push_back(fn_name);
        return;
      }
      if (x == "(") {
        skip_group("(", ")");  // noexcept(...)
        continue;
      }
      if (x == ":") {
        // ctor-init list: `member_{...}` / `member_(...)` items, then the
        // body brace (recognized by NOT following an identifier/template
        // close).
        ++i_;
        while (!done()) {
          const std::string& y = tok().text;
          if (y == "(") {
            skip_group("(", ")");
            continue;
          }
          if (y == "{") {
            const Token& prev = toks_[i_ - 1];
            if (prev.kind == TokKind::kIdentifier || prev.text == ">") {
              skip_group("{", "}");  // an init brace
              continue;
            }
            record_function(cls, head, param_range, saw_operator, std::move(template_params));
            return;
          }
          if (y == ";") {
            ++i_;
            return;
          }
          if (y == "}") return;
          ++i_;
        }
        return;
      }
      if (x == "}") return;
      ++i_;
    }
  }

  struct FunctionHead {
    std::string qualifier;
    std::string name;
    int line{0};
    std::size_t decl_begin{0};
    std::size_t name_token{0};
  };

  void record_function(ClassInfo* cls, const FunctionHead& head,
                       const std::vector<std::pair<std::size_t, std::size_t>>& params,
                       bool is_operator, std::vector<std::string> template_params) {
    const std::string& name = head.name;
    FunctionDef def;
    def.class_name = cls != nullptr ? cls->name : head.qualifier;
    def.name = name;
    def.line = head.line;
    def.name_token = head.name_token;
    def.decl_begin = head.decl_begin;
    def.template_params = std::move(template_params);
    if (!params.empty()) def.params = parse_params(params.back().first, params.back().second);
    def.body_begin = i_;
    skip_group("{", "}");
    def.body_end = i_;
    if (cls != nullptr && !name.empty() && !is_operator) cls->member_functions.push_back(name);
    if (!def.name.empty()) unit_.functions.push_back(std::move(def));
  }

  /// Parses `( ... )` at [open, close] into typed parameters. The name is
  /// the last top-level identifier of each comma-separated chunk (before a
  /// default argument, if any); single-token chunks are unnamed.
  [[nodiscard]] std::vector<ParamDecl> parse_params(std::size_t open, std::size_t close) const {
    std::vector<ParamDecl> out;
    std::size_t chunk_begin = open + 1;
    int paren = 0;
    int angle = 0;
    int brace = 0;
    const auto flush = [&](std::size_t chunk_end) {
      if (chunk_end <= chunk_begin) return;
      std::size_t name_idx = kNone;
      std::size_t limit = chunk_end;
      int a = 0;
      for (std::size_t j = chunk_begin; j < chunk_end; ++j) {
        const std::string& x = toks_[j].text;
        if (x == "<" && j > chunk_begin && toks_[j - 1].kind == TokKind::kIdentifier) ++a;
        if (x == ">" && a > 0) --a;
        if (x == "=" && a == 0) {
          limit = j;
          break;
        }
      }
      a = 0;
      std::size_t idents = 0;
      for (std::size_t j = chunk_begin; j < limit; ++j) {
        const std::string& x = toks_[j].text;
        if (x == "<" && j > chunk_begin && toks_[j - 1].kind == TokKind::kIdentifier) ++a;
        if (x == ">" && a > 0) --a;
        if (a == 0 && toks_[j].kind == TokKind::kIdentifier && !is_qual_keyword(x)) {
          name_idx = j;
          ++idents;
        }
      }
      ParamDecl p;
      if (idents >= 2 && name_idx != kNone) {
        p.name = toks_[name_idx].text;
        p.type = join_tokens(toks_, chunk_begin, name_idx);
      } else {
        p.type = join_tokens(toks_, chunk_begin, limit);
      }
      if (!p.type.empty() || !p.name.empty()) out.push_back(std::move(p));
    };
    for (std::size_t j = open + 1; j < close; ++j) {
      const std::string& x = toks_[j].text;
      if (x == "(") ++paren;
      if (x == ")") --paren;
      if (x == "{") ++brace;
      if (x == "}") --brace;
      if (x == "<" && j > open + 1 && toks_[j - 1].kind == TokKind::kIdentifier) ++angle;
      if (x == ">" && angle > 0) --angle;
      if (x == "," && paren == 0 && angle == 0 && brace == 0) {
        flush(j);
        chunk_begin = j + 1;
      }
    }
    flush(close);
    return out;
  }

  /// Post-pass: `static` locals inside every recorded function body.
  void collect_function_local_statics() {
    for (const FunctionDef& def : unit_.functions) {
      for (std::size_t j = def.body_begin; j + 1 < def.body_end; ++j) {
        if (toks_[j].kind != TokKind::kIdentifier || toks_[j].text != "static") continue;
        const int stmt_line = toks_[j].line;
        bool is_const = false;
        bool is_atomic = false;
        bool is_thread_local = false;
        std::size_t last_ident = kNone;
        std::size_t idents = 0;
        std::size_t k = j + 1;
        bool function_like = false;
        for (; k < def.body_end; ++k) {
          const Token& t = toks_[k];
          const std::string& x = t.text;
          if (t.kind == TokKind::kIdentifier) {
            if (x == "const" || x == "constexpr") is_const = true;
            if (x == "atomic") is_atomic = true;
            if (x == "thread_local") is_thread_local = true;
            if (!is_qual_keyword(x)) {
              last_ident = k;
              ++idents;
            }
            continue;
          }
          if (x == "<" && toks_[k - 1].kind == TokKind::kIdentifier) {
            int depth = 0;
            for (; k < def.body_end; ++k) {
              if (toks_[k].text == "<") ++depth;
              if (toks_[k].text == ">" && --depth == 0) break;
              if (toks_[k].text == ";") break;
            }
            continue;
          }
          if (x == "(" && last_ident != kNone && toks_[k - 1].kind == TokKind::kIdentifier) {
            function_like = true;  // `static int helper();` — not state
            break;
          }
          if (x == "::" || x == "*" || x == "&" || x == "[" || x == "]") continue;
          if (x == ";" || x == "=" || x == "{") break;
          break;
        }
        if (function_like || last_ident == kNone || idents < 2) continue;
        StaticDecl s;
        s.kind = StaticDecl::Kind::kFunctionLocal;
        s.name = toks_[last_ident].text;
        s.type = join_tokens(toks_, j + 1, last_ident);
        s.line = toks_[last_ident].line;
        s.is_const = is_const;
        s.is_atomic = is_atomic;
        s.is_thread_local = is_thread_local;
        auto note = notes_.shared.find(s.line);
        if (note == notes_.shared.end()) note = notes_.shared.find(stmt_line);
        if (note != notes_.shared.end()) {
          s.shared_annotated = true;
          s.shared_mechanism = note->second.mechanism;
          s.shared_reason = note->second.reason;
        }
        unit_.statics.push_back(std::move(s));
      }
    }
  }
};

[[nodiscard]] std::string normalize_path(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

void extract_includes(TranslationUnit& unit) {
  for (const lint::Directive& d : unit.src.directives) {
    const std::string text = detail::trim(d.text);
    if (text.rfind("include", 0) != 0) continue;
    const std::string rest = detail::trim(text.substr(7));
    if (rest.size() < 2) continue;
    IncludeDecl inc;
    inc.line = d.line;
    if (rest.front() == '"') {
      const std::size_t end = rest.find('"', 1);
      if (end == std::string::npos) continue;
      inc.target = rest.substr(1, end - 1);
      inc.quoted = true;
    } else if (rest.front() == '<') {
      const std::size_t end = rest.find('>', 1);
      if (end == std::string::npos) continue;
      inc.target = rest.substr(1, end - 1);
      inc.quoted = false;
    } else {
      continue;
    }
    unit.includes.push_back(std::move(inc));
  }
}

}  // namespace

TranslationUnit parse_unit(const std::string& path, std::string_view source) {
  TranslationUnit unit;
  unit.path = normalize_path(path);
  unit.src = lint::tokenize(source);
  const detail::Annotations notes = detail::parse_annotations(unit.src);
  StructureParser parser{unit, notes};
  parser.run();
  extract_includes(unit);
  return unit;
}

}  // namespace blam::analyze
