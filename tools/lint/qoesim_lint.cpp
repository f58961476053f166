// qoesim_lint v5 -- project-specific static analysis for the qoesim engine.
//
// Six checks, all enforcing the determinism & shared-state contract and
// the shard-ownership contract documented in README.md:
//
//   global-state   No new process-wide mutable state: namespace-scope
//                  non-const variables, mutable static data members,
//                  function-local `static` mutables, and `thread_local`
//                  anywhere all fail. Shared state is what forbids
//                  sharding the simulator across threads (the PDES
//                  roadmap item) and what made per-cell results depend on
//                  process history; everything must hang off Simulation
//                  or a caller-owned registry.
//
//   determinism    Banned entropy/wall-clock sources: rand(), srand(),
//                  std::random_device, time(), clock(), system_clock /
//                  high_resolution_clock, and default-constructed
//                  <random> engines. The blessed path is sim/random.hpp
//                  (RandomStream::derive_seed); steady_clock is allowed
//                  for wall-clock *measurement*.
//
//   unordered-iteration  Range-for over a std::unordered_* container.
//                  Iteration order depends on hash seeding, load factor
//                  history, and the standard library, so any fold or
//                  emission over it is nondeterministic across runs and
//                  toolchains. Iterate a sorted view, or keep a
//                  deterministic index alongside.
//
//   pointer-order  Address-dependent ordering: std::map/std::set keyed
//                  by a pointer type, and std::sort/std::stable_sort of
//                  a vector/deque of pointers without a comparator.
//                  Allocation addresses vary run to run, so the order is
//                  nondeterministic; key and compare by stable ids.
//
//   shard-state    Members of a class marked QOESIM_SHARD_PLANE (see
//                  src/core/annotations.hpp) that smell shared --
//                  `mutable` members and shared_ptr/weak_ptr members --
//                  must carry QOESIM_GUARDED_BY / QOESIM_PT_GUARDED_BY
//                  stating who guards them. Per-shard classes otherwise
//                  accrete quietly-shared state that blocks PDES.
//
//   mailbox        Classes marked QOESIM_CROSS_SHARD_CHANNEL (the SPSC
//                  mailbox family in net/mailbox.hpp -- the ONE
//                  sanctioned structure that two shards may both touch)
//                  must be pure data: no members of engine types
//                  (Scheduler, Simulation, Node, Link, EventHandle,
//                  ShardAffinity, ShardGuard -- a channel holding one
//                  reaches into a shard's private state from the wrong
//                  thread), and no synchronization members (mutex /
//                  atomic / condition_variable -- the epoch barrier is
//                  the only cross-shard happens-before; private locks
//                  hide ordering the determinism contract forbids).
//
// The tool is deliberately self-contained (a C++ tokenizer with a scope
// tracker, no libclang dependency) so it builds and runs anywhere the
// project does; the token-level approach is conservative where noted in
// checks below. Whether the per-packet path allocates is not inferred
// here: tests/test_alloc_gate.cpp measures it.
//
// Modes:
//   qoesim_lint --root <repo> [--compdb build/compile_commands.json]
//               [--allowlist tools/lint/allowlist.txt]
//       Lint every *.cpp / *.hpp / *.h under <repo>/src, <repo>/bench,
//       and <repo>/tools (tools/lint/fixtures excluded -- they are
//       deliberate violations). Exit 1 on any finding, 2 on usage,
//       allowlist or suppression errors.
//
//   qoesim_lint --fixtures <dir>
//       Self-test: lint each *.cpp in <dir> standalone and compare the
//       findings against its `// LINT-EXPECT: <check>` annotations.
//       Exit 1 on any mismatch (missed positive OR spurious finding).
//
// Suppressions: `// qoesim-lint: allow(determinism,pointer-order) -- why`
// applies to its own line and the next. The allowlist file holds
// `<path-suffix> <check> <identifier>` triples for findings that cannot
// carry an inline comment. Unknown check names (inline or allowlisted)
// and malformed allowlist lines are hard errors (exit 2), so a typo or a
// suppression of a deleted check cannot silently linger.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

// --------------------------------------------------------------- tokens

enum class TokKind { kIdent, kPunct, kNumber, kString, kChar };

struct Tok {
  TokKind kind;
  std::string text;
  int line = 0;
};

struct LintDirectives {
  // line -> set of suppressed check names ("*" = all); a suppression
  // covers its own line and the following one.
  std::map<int, std::set<std::string>> suppress;
  // (line, check) pairs a fixture expects the tool to report.
  std::set<std::pair<int, std::string>> expect;
};

struct LexedFile {
  std::string path;
  std::vector<Tok> toks;
  LintDirectives directives;
};

void parse_comment_directives(const std::string& comment, int line,
                              LintDirectives* out) {
  // `qoesim-lint` marker, then allow(<check>[,<check>]) and a reason.
  if (const auto pos = comment.find("qoesim-lint:"); pos != std::string::npos) {
    const auto open = comment.find("allow(", pos);
    if (open != std::string::npos) {
      const auto close = comment.find(')', open);
      if (close != std::string::npos) {
        std::string list = comment.substr(open + 6, close - open - 6);
        std::string item;
        std::stringstream ss(list);
        while (std::getline(ss, item, ',')) {
          item.erase(std::remove_if(item.begin(), item.end(), ::isspace),
                     item.end());
          if (!item.empty()) out->suppress[line].insert(item);
        }
      }
    }
  }
  // LINT-EXPECT: check-name
  if (const auto pos = comment.find("LINT-EXPECT:"); pos != std::string::npos) {
    std::string rest = comment.substr(pos + 12);
    std::stringstream ss(rest);
    std::string check;
    while (ss >> check) out->expect.emplace(line, check);
  }
}

// A comments/strings/raw-strings/preprocessor-aware tokenizer. Tokens are
// identifiers, numbers, string/char literals (content dropped), and
// punctuation (with `::` and `->` fused, everything else single-char).
LexedFile lex(const std::string& path, const std::string& src) {
  LexedFile out;
  out.path = path;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  bool at_line_start = true;  // only whitespace so far on this line

  auto peek = [&](std::size_t k) -> char {
    return i + k < n ? src[i + k] : '\0';
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: swallow to end of line (honouring \ splices)
    // so macro bodies and includes never reach the checks.
    if (c == '#' && at_line_start) {
      while (i < n) {
        if (src[i] == '\\' && peek(1) == '\n') {
          i += 2;
          ++line;
        } else if (src[i] == '\n') {
          break;  // the newline itself is handled above
        } else {
          ++i;
        }
      }
      continue;
    }
    at_line_start = false;
    // Line comment.
    if (c == '/' && peek(1) == '/') {
      std::size_t start = i + 2;
      while (i < n && src[i] != '\n') ++i;
      parse_comment_directives(src.substr(start, i - start), line,
                               &out.directives);
      continue;
    }
    // Block comment.
    if (c == '/' && peek(1) == '*') {
      std::size_t start = i + 2;
      int start_line = line;
      i += 2;
      while (i < n && !(src[i] == '*' && peek(1) == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      parse_comment_directives(src.substr(start, i - start), start_line,
                               &out.directives);
      if (i < n) i += 2;
      continue;
    }
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && peek(1) == '"') {
      std::size_t d = i + 2;
      while (d < n && src[d] != '(') ++d;
      const std::string delim = ")" + src.substr(i + 2, d - (i + 2)) + "\"";
      std::size_t end = src.find(delim, d);
      if (end == std::string::npos) end = n;
      for (std::size_t k = i; k < end && k < n; ++k)
        if (src[k] == '\n') ++line;
      out.toks.push_back({TokKind::kString, "\"\"", line});
      i = std::min(n, end + delim.size());
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\') ++i;
        if (i < n && src[i] == '\n') ++line;  // unterminated; keep counting
        ++i;
      }
      ++i;  // closing quote
      out.toks.push_back(
          {quote == '"' ? TokKind::kString : TokKind::kChar, "", line});
      continue;
    }
    // Identifier / keyword.
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(src[i])) ||
                       src[i] == '_'))
        ++i;
      out.toks.push_back({TokKind::kIdent, src.substr(start, i - start), line});
      continue;
    }
    // Number (good enough: digits, dots, exponents, hex, suffixes).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(src[i])) ||
                       src[i] == '.' || src[i] == '\'' ||
                       ((src[i] == '+' || src[i] == '-') && i > start &&
                        (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                         src[i - 1] == 'p' || src[i - 1] == 'P'))))
        ++i;
      out.toks.push_back({TokKind::kNumber, src.substr(start, i - start), line});
      continue;
    }
    // Punctuation; fuse `::` and `->`.
    if (c == ':' && peek(1) == ':') {
      out.toks.push_back({TokKind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && peek(1) == '>') {
      out.toks.push_back({TokKind::kPunct, "->", line});
      i += 2;
      continue;
    }
    out.toks.push_back({TokKind::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

// ------------------------------------------------------------- findings

struct Finding {
  std::string file;
  int line = 0;
  std::string check;
  std::string identifier;  // allowlist key: variable/function name
  std::string message;
};

bool suppressed(const LintDirectives& d, int line, const std::string& check) {
  for (int l : {line, line - 1}) {
    auto it = d.suppress.find(l);
    if (it == d.suppress.end()) continue;
    if (it->second.count(check) || it->second.count("*")) return true;
  }
  return false;
}

// ------------------------------------------------------ scope structure

enum class ScopeKind { kNamespace, kClass, kEnum, kFunction, kBlock, kInit };

bool is_keyword(const std::string& s) {
  static const std::set<std::string> kw = {
      "alignas",      "alignof",   "asm",          "auto",
      "bool",         "break",     "case",         "catch",
      "char",         "class",     "const",        "consteval",
      "constexpr",    "constinit", "const_cast",   "continue",
      "co_await",     "co_return", "co_yield",     "decltype",
      "default",      "delete",    "do",           "double",
      "dynamic_cast", "else",      "enum",         "explicit",
      "export",       "extern",    "false",        "float",
      "for",          "friend",    "goto",         "if",
      "inline",       "int",       "long",         "mutable",
      "namespace",    "new",       "noexcept",     "nullptr",
      "operator",     "private",   "protected",    "public",
      "register",     "reinterpret_cast",          "requires",
      "return",       "short",     "signed",       "sizeof",
      "static",       "static_assert",             "static_cast",
      "struct",       "switch",    "template",     "this",
      "thread_local", "throw",     "true",         "try",
      "typedef",      "typeid",    "typename",     "union",
      "unsigned",     "using",     "virtual",      "void",
      "volatile",     "wchar_t",   "while"};
  return kw.count(s) > 0;
}

bool stmt_has_ident(const std::vector<Tok>& stmt, const std::string& name) {
  for (const Tok& t : stmt)
    if (t.kind == TokKind::kIdent && t.text == name) return true;
  return false;
}

// Does this statement (ending at a `{`) look like a function definition
// header? True when a top-level `(...)` group is followed only by
// qualifiers (const, noexcept, override, final, &, &&, -> trailing
// return, try, requires-clauses are approximated).
bool is_function_header(const std::vector<Tok>& stmt) {
  // Find the matching `(` of the LAST top-level `)`.
  int depth = 0;
  std::ptrdiff_t close = -1;
  for (std::ptrdiff_t k = static_cast<std::ptrdiff_t>(stmt.size()) - 1; k >= 0;
       --k) {
    const Tok& t = stmt[k];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == ")" || t.text == "]" || t.text == "}") ++depth;
    if (t.text == "(" || t.text == "[" || t.text == "{") --depth;
    if (t.text == ")" && depth == 1) {
      close = k;
      break;
    }
  }
  if (close < 0) return false;
  // Everything after the closing `)` must be qualifier-ish.
  for (std::size_t k = static_cast<std::size_t>(close) + 1; k < stmt.size();
       ++k) {
    const Tok& t = stmt[k];
    if (t.kind == TokKind::kIdent) {
      if (t.text == "const" || t.text == "noexcept" || t.text == "override" ||
          t.text == "final" || t.text == "mutable" || t.text == "try" ||
          t.text == "requires")
        continue;
      // trailing-return-type tokens after `->` are arbitrary; allow any
      // identifier once a `->` was seen.
      bool after_arrow = false;
      for (std::size_t j = static_cast<std::size_t>(close) + 1; j < k; ++j)
        if (stmt[j].kind == TokKind::kPunct && stmt[j].text == "->")
          after_arrow = true;
      if (after_arrow) continue;
      return false;
    }
    if (t.kind == TokKind::kPunct) {
      if (t.text == "&" || t.text == "->" || t.text == "::" || t.text == "<" ||
          t.text == ">" || t.text == "(" || t.text == ")" || t.text == ",")
        continue;
      return false;
    }
  }
  // Preceded by a name (identifier or operator...) -- rules out
  // `if (...)`-style control flow, which is filtered before calling.
  int pdepth = 0;
  for (std::ptrdiff_t k = close; k >= 0; --k) {
    const Tok& t = stmt[k];
    if (t.kind == TokKind::kPunct) {
      if (t.text == ")") ++pdepth;
      if (t.text == "(") {
        --pdepth;
        if (pdepth == 0) {
          // token before the opening paren
          if (k == 0) return false;
          const Tok& prev = stmt[k - 1];
          if (prev.kind == TokKind::kIdent && !is_keyword(prev.text))
            return true;
          if (prev.kind == TokKind::kPunct &&
              (prev.text == ">" || prev.text == "]"))  // operator[], templ
            return true;
          // operator overloads: `operator` keyword somewhere before
          for (std::ptrdiff_t j = k - 1; j >= 0; --j)
            if (stmt[j].kind == TokKind::kIdent && stmt[j].text == "operator")
              return true;
          return false;
        }
      }
    }
  }
  return false;
}

// --------------------------------------------------------- the analyzer

class Analyzer {
 public:
  void add_file(LexedFile file) { files_.push_back(std::move(file)); }

  void run() {
    for (auto& f : files_) structural_pass(f);
    for (auto& f : files_) determinism_pass(f);
    for (auto& f : files_) unordered_pass(f);
    for (auto& f : files_) pointer_order_pass(f);
  }

  const std::vector<Finding>& findings() const { return findings_; }
  const std::vector<LexedFile>& files() const { return files_; }

 private:
  struct Scope {
    ScopeKind kind;
    std::vector<Tok> stmt;  // statement being accumulated at this level
    // For kClass scopes: the class head carried QOESIM_SHARD_PLANE, so
    // the shard-state member checks apply inside it.
    bool shard_plane = false;
    // For kClass scopes: the class head carried
    // QOESIM_CROSS_SHARD_CHANNEL, so the mailbox member checks apply.
    bool cross_channel = false;
  };

  void report(const LexedFile& f, int line, const std::string& check,
              const std::string& ident, const std::string& msg) {
    if (suppressed(f.directives, line, check)) return;
    findings_.push_back({f.path, line, check, ident, msg});
  }

  bool in_function(const std::vector<Scope>& scopes) const {
    for (const Scope& s : scopes)
      if (s.kind == ScopeKind::kFunction) return true;
    return false;
  }

  // ---- check family: global-state --------------------------------
  void check_statement(const LexedFile& f, const std::vector<Scope>& scopes,
                       const std::vector<Tok>& stmt) {
    if (stmt.empty()) return;
    const ScopeKind scope =
        scopes.empty() ? ScopeKind::kNamespace : scopes.back().kind;
    const int line = stmt.front().line;

    // thread_local is shared-state-by-thread: banned at every scope.
    for (const Tok& t : stmt) {
      if (t.kind == TokKind::kIdent && t.text == "thread_local") {
        report(f, t.line, "global-state", decl_name(stmt),
               "thread_local variable (per-thread shared state; own it in "
               "Simulation or pass it down)");
        return;
      }
    }

    const std::string& first = stmt.front().text;
    if (first == "using" || first == "typedef" || first == "template" ||
        first == "friend" || first == "static_assert" || first == "namespace" ||
        first == "public" || first == "private" || first == "protected")
      return;
    if (stmt_has_ident(stmt, "operator")) return;

    const bool has_const = stmt_has_ident(stmt, "const") ||
                           stmt_has_ident(stmt, "constexpr");
    const bool has_static = stmt_has_ident(stmt, "static");

    if (in_function(scopes) || scope == ScopeKind::kFunction ||
        scope == ScopeKind::kBlock) {
      // Function-local statics: only the `static` storage class matters.
      if (has_static && !has_const) {
        report(f, line, "global-state", decl_name(stmt),
               "function-local static mutable (process-wide state; hoist "
               "into the owning object)");
      }
      return;
    }
    if (scope == ScopeKind::kEnum || scope == ScopeKind::kInit) return;

    // Class / struct scope: mutable static data members, and -- inside a
    // QOESIM_SHARD_PLANE class -- shared-smelling members that lack an
    // ownership annotation.
    if (scope == ScopeKind::kClass) {
      if (has_static && !has_const && !is_declaration_function_like(stmt)) {
        report(f, line, "global-state", decl_name(stmt),
               "mutable static data member (class-wide shared state)");
        return;  // already flagged; shard-state would double-report
      }
      if (scopes.back().shard_plane && !has_static &&
          !is_declaration_function_like(stmt)) {
        const bool shared_owner = stmt_has_ident(stmt, "shared_ptr") ||
                                  stmt_has_ident(stmt, "weak_ptr");
        const bool is_mutable = stmt_has_ident(stmt, "mutable");
        const bool annotated = stmt_has_ident(stmt, "QOESIM_GUARDED_BY") ||
                               stmt_has_ident(stmt, "QOESIM_PT_GUARDED_BY");
        if ((is_mutable || shared_owner) && !annotated) {
          report(f, line, "shard-state", decl_name(stmt),
                 is_mutable
                     ? "mutable member of a QOESIM_SHARD_PLANE class "
                       "without QOESIM_GUARDED_BY (state who guards it)"
                     : "shared-ownership member of a QOESIM_SHARD_PLANE "
                       "class without QOESIM_PT_GUARDED_BY (shared_ptr "
                       "crosses shard lifetimes; state who guards it)");
        }
      }
      if (scopes.back().cross_channel && !has_static &&
          !is_declaration_function_like(stmt)) {
        // A cross-shard channel is plain data in flight: a member of an
        // engine type would let the producer shard reach into the
        // consumer shard's private state (or vice versa), and private
        // synchronization would introduce a happens-before edge the
        // epoch barrier does not know about.
        static constexpr const char* kEngineTypes[] = {
            "Scheduler", "Simulation",    "Node",      "Link",
            "EventHandle", "ShardAffinity", "ShardGuard"};
        for (const char* type : kEngineTypes) {
          if (stmt_has_ident(stmt, type)) {
            report(f, line, "mailbox", decl_name(stmt),
                   std::string("member of engine type '") + type +
                       "' in a QOESIM_CROSS_SHARD_CHANNEL class (channels "
                       "carry data between shards, never shard state)");
            return;
          }
        }
        static constexpr const char* kSyncTypes[] = {
            "mutex", "shared_mutex", "atomic", "condition_variable",
            "condition_variable_any"};
        for (const char* type : kSyncTypes) {
          if (stmt_has_ident(stmt, type)) {
            report(f, line, "mailbox", decl_name(stmt),
                   std::string("synchronization member ('") + type +
                       "') in a QOESIM_CROSS_SHARD_CHANNEL class (the "
                       "epoch barrier is the only sanctioned cross-shard "
                       "happens-before)");
            return;
          }
        }
      }
      return;
    }

    // Namespace scope.
    for (const Tok& t : stmt)
      if (t.kind == TokKind::kIdent &&
          (t.text == "class" || t.text == "struct" || t.text == "union" ||
           t.text == "enum"))
        return;  // forward declarations etc.
    const bool has_eq = top_level_eq(stmt);
    if (first == "extern" && !has_eq) return;  // declaration, not definition
    if (is_declaration_function_like(stmt) && !has_eq) return;  // fn decl
    if (!has_eq && !is_variable_declaration(stmt)) return;
    if (has_const) return;
    report(f, line, "global-state", decl_name(stmt),
           "namespace-scope mutable variable (process-wide state; own it in "
           "Simulation or a caller-owned registry)");
  }

  static bool top_level_eq(const std::vector<Tok>& stmt) {
    int depth = 0, angle = 0;
    for (const Tok& t : stmt) {
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
      if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
      if (t.text == "<") ++angle;
      if (t.text == ">") angle = std::max(0, angle - 1);
      if (t.text == "=" && depth == 0 && angle == 0) return true;
    }
    return false;
  }

  // A top-level `(` before any `=` reads as a function declaration.
  static bool is_declaration_function_like(const std::vector<Tok>& stmt) {
    int angle = 0;
    for (const Tok& t : stmt) {
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "<") ++angle;
      if (t.text == ">") angle = std::max(0, angle - 1);
      if (t.text == "=" && angle == 0) return false;
      if (t.text == "(" && angle == 0) return true;
    }
    return false;
  }

  // `type name;` / `type name{...};` -- at least two identifier-ish
  // tokens (fundamental type keywords count: `double g;`) with the last
  // one an identifier, array declarator, or the `{}` marker left behind
  // by a brace initializer.
  static bool is_variable_declaration(const std::vector<Tok>& stmt) {
    static const std::set<std::string> fundamental = {
        "bool",  "char",   "short",    "int",  "long",
        "float", "double", "unsigned", "signed", "wchar_t", "auto"};
    int idents = 0;
    for (const Tok& t : stmt)
      if (t.kind == TokKind::kIdent &&
          (!is_keyword(t.text) || fundamental.count(t.text) > 0))
        ++idents;
    if (idents < 2) return false;
    const Tok& last = stmt.back();
    return (last.kind == TokKind::kIdent && !is_keyword(last.text)) ||
           (last.kind == TokKind::kPunct &&
            (last.text == "]" || last.text == "{}"));
  }

  static std::string decl_name(const std::vector<Tok>& stmt) {
    // Identifier directly before `=`, `[`, or end of statement.
    int depth = 0, angle = 0;
    for (std::size_t k = 0; k < stmt.size(); ++k) {
      const Tok& t = stmt[k];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
        if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
        if (t.text == "<") ++angle;
        if (t.text == ">") angle = std::max(0, angle - 1);
        if ((t.text == "=" || t.text == "[") && depth <= 0 && angle == 0 &&
            k > 0 && stmt[k - 1].kind == TokKind::kIdent)
          return stmt[k - 1].text;
      }
    }
    for (auto it = stmt.rbegin(); it != stmt.rend(); ++it)
      if (it->kind == TokKind::kIdent && !is_keyword(it->text))
        return it->text;
    return "?";
  }

  // ---- structural pass: scopes, statements --------------------------
  void structural_pass(const LexedFile& f) {
    std::vector<Scope> scopes;
    std::vector<Tok> stmt;
    const auto& toks = f.toks;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Tok& t = toks[i];
      // Inside a braced initializer the statement is paused: its tokens
      // (values, nested braces, even `;` in a lambda) belong to the
      // initializer, not the declaration. When the outermost init brace
      // closes, a `{}` marker records that the declaration had one.
      if (!scopes.empty() && scopes.back().kind == ScopeKind::kInit) {
        if (t.kind == TokKind::kPunct && t.text == "{") {
          scopes.push_back({ScopeKind::kInit, {}});
        } else if (t.kind == TokKind::kPunct && t.text == "}") {
          scopes.pop_back();
          if (scopes.empty() || scopes.back().kind != ScopeKind::kInit)
            stmt.push_back({TokKind::kPunct, "{}", t.line});
        }
        continue;
      }
      if (t.kind == TokKind::kPunct && t.text == "{") {
        const ScopeKind kind = classify_brace(scopes, stmt);
        if (kind == ScopeKind::kInit) {
          // The statement continues past the brace group; keep `stmt`.
          scopes.push_back({kind, {}});
          continue;
        }
        Scope sc{kind, {}};
        if (kind == ScopeKind::kClass) {
          sc.shard_plane = stmt_has_ident(stmt, "QOESIM_SHARD_PLANE");
          sc.cross_channel =
              stmt_has_ident(stmt, "QOESIM_CROSS_SHARD_CHANNEL");
        }
        scopes.push_back(std::move(sc));
        stmt.clear();
        continue;
      }
      if (t.kind == TokKind::kPunct && t.text == "}") {
        const bool was_init =
            !scopes.empty() && scopes.back().kind == ScopeKind::kInit;
        if (!scopes.empty()) scopes.pop_back();
        if (!was_init) stmt.clear();
        continue;
      }
      if (t.kind == TokKind::kPunct && t.text == ";") {
        check_statement(f, scopes, stmt);
        stmt.clear();
        continue;
      }
      // An access specifier ends no statement (no `;`), so without this
      // split the member declared right after `private:` would accumulate
      // behind the specifier and dodge the member checks above.
      if (t.kind == TokKind::kPunct && t.text == ":" && stmt.size() == 1 &&
          stmt.front().kind == TokKind::kIdent &&
          (stmt.front().text == "public" || stmt.front().text == "private" ||
           stmt.front().text == "protected")) {
        stmt.clear();
        continue;
      }
      stmt.push_back(t);
    }
  }

  ScopeKind classify_brace(const std::vector<Scope>& scopes,
                           const std::vector<Tok>& stmt) const {
    const bool inside_fn = in_function(scopes);
    if (!inside_fn) {
      if (stmt.empty())
        return scopes.empty() ? ScopeKind::kNamespace : ScopeKind::kBlock;
      if (stmt_has_ident(stmt, "namespace")) return ScopeKind::kNamespace;
      if (stmt_has_ident(stmt, "enum")) return ScopeKind::kEnum;
      if (is_function_header(stmt) && !stmt_has_ident(stmt, "if") &&
          !stmt_has_ident(stmt, "for") && !stmt_has_ident(stmt, "while") &&
          !stmt_has_ident(stmt, "switch") && !stmt_has_ident(stmt, "catch"))
        return ScopeKind::kFunction;
      if (stmt_has_ident(stmt, "class") || stmt_has_ident(stmt, "struct") ||
          stmt_has_ident(stmt, "union"))
        return ScopeKind::kClass;
      if (stmt_has_ident(stmt, "extern")) return ScopeKind::kNamespace;
      // `int x {3};` at namespace/class scope: initializer brace.
      return ScopeKind::kInit;
    }
    // Inside a function body every brace is control flow, a lambda, or a
    // braced initializer; for the global-state check they are equivalent
    // (kBlock) except initializers, which must not clear the statement.
    if (!stmt.empty()) {
      const Tok& last = stmt.back();
      const bool init_like =
          (last.kind == TokKind::kPunct &&
           (last.text == "=" || last.text == "(" || last.text == "," ||
            last.text == "{")) ||
          (last.kind == TokKind::kIdent && !is_keyword(last.text) &&
           !is_function_header(stmt));
      if (init_like && !stmt_has_ident(stmt, "if") &&
          !stmt_has_ident(stmt, "for") && !stmt_has_ident(stmt, "while") &&
          !stmt_has_ident(stmt, "switch") && !stmt_has_ident(stmt, "do") &&
          !stmt_has_ident(stmt, "else") && !stmt_has_ident(stmt, "try") &&
          !stmt_has_ident(stmt, "catch"))
        return ScopeKind::kInit;
    }
    return ScopeKind::kBlock;
  }

  // ---- check family: determinism ----------------------------------
  void determinism_pass(const LexedFile& f) {
    const auto& toks = f.toks;
    auto prev_punct = [&](std::size_t k, const char* p) {
      return k > 0 && toks[k - 1].kind == TokKind::kPunct &&
             toks[k - 1].text == p;
    };
    auto next_is = [&](std::size_t k, const char* p) {
      return k + 1 < toks.size() && toks[k + 1].kind == TokKind::kPunct &&
             toks[k + 1].text == p;
    };
    static const std::set<std::string> engines = {
        "mt19937",   "mt19937_64", "minstd_rand",           "minstd_rand0",
        "ranlux24",  "ranlux48",   "default_random_engine", "knuth_b"};
    for (std::size_t k = 0; k < toks.size(); ++k) {
      const Tok& t = toks[k];
      if (t.kind != TokKind::kIdent) continue;
      const bool member = prev_punct(k, ".") || prev_punct(k, "->");
      if ((t.text == "rand" || t.text == "srand") && next_is(k, "(") &&
          !member) {
        report(f, t.line, "determinism", t.text,
               "C library PRNG (global hidden state; use "
               "Simulation::rng()/RandomStream::derive_seed)");
        continue;
      }
      if (t.text == "random_device") {
        report(f, t.line, "determinism", t.text,
               "std::random_device is non-deterministic entropy; derive "
               "seeds with RandomStream::derive_seed");
        continue;
      }
      // `time`/`clock` only count in call context (preceded by an
      // operator, `::`, or `return`): `int time() const` declares a
      // member named time, it does not read the wall clock.
      const bool call_context =
          k > 0 &&
          ((toks[k - 1].kind == TokKind::kPunct && toks[k - 1].text != ")" &&
            toks[k - 1].text != "]") ||
           (toks[k - 1].kind == TokKind::kIdent &&
            toks[k - 1].text == "return"));
      if ((t.text == "time" || t.text == "clock") && next_is(k, "(") &&
          !member && call_context) {
        report(f, t.line, "determinism", t.text,
               "wall-clock call in simulation code (results would depend "
               "on run time; use Simulation::now())");
        continue;
      }
      if (t.text == "system_clock" || t.text == "high_resolution_clock") {
        report(f, t.line, "determinism", t.text,
               "wall-clock source (steady_clock is allowed for measuring "
               "host time; simulated time comes from Simulation::now())");
        continue;
      }
      if (engines.count(t.text) > 0 && !member) {
        // Engine *type* use: flag default construction (`mt19937 g;`,
        // `mt19937 g{};`, `mt19937 g()`/`mt19937()`), which seeds with
        // the fixed default -- identical streams everywhere and a trap
        // once someone "fixes" it with random_device.
        std::size_t j = k + 1;
        if (j < toks.size() && toks[j].kind == TokKind::kIdent) ++j;  // name
        const bool empty_paren =
            j + 1 < toks.size() && toks[j].kind == TokKind::kPunct &&
            (toks[j].text == "(" || toks[j].text == "{") &&
            toks[j + 1].kind == TokKind::kPunct &&
            (toks[j + 1].text == ")" || toks[j + 1].text == "}");
        const bool bare_decl = j < toks.size() &&
                               toks[j].kind == TokKind::kPunct &&
                               (toks[j].text == ";" || toks[j].text == ",");
        if (empty_paren || bare_decl) {
          report(f, t.line, "determinism", t.text,
                 "default-constructed random engine (unseeded; construct "
                 "from RandomStream::derive_seed)");
        }
        continue;
      }
    }
  }

  // ---- check family: unordered-iteration ---------------------------
  // Two token passes per file: first record every name declared as a
  // std::unordered_* container (members and locals alike -- a name
  // registry, not real type resolution, so collisions are conservative);
  // then flag every range-for whose range expression mentions a recorded
  // name or an unordered container type directly. Filling an unordered
  // container is fine; iterating one folds hash order into results.
  void unordered_pass(const LexedFile& f) {
    static const std::set<std::string> unordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    const auto& toks = f.toks;
    std::set<std::string> names;
    for (std::size_t k = 0; k < toks.size(); ++k) {
      if (toks[k].kind != TokKind::kIdent || unordered.count(toks[k].text) == 0)
        continue;
      std::size_t j = skip_template_args(toks, k + 1);
      while (j < toks.size() && toks[j].kind == TokKind::kPunct &&
             (toks[j].text == "&" || toks[j].text == "*"))
        ++j;
      if (j < toks.size() && toks[j].kind == TokKind::kIdent &&
          !is_keyword(toks[j].text))
        names.insert(toks[j].text);
    }
    for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
      if (!(toks[k].kind == TokKind::kIdent && toks[k].text == "for")) continue;
      if (!(toks[k + 1].kind == TokKind::kPunct && toks[k + 1].text == "("))
        continue;
      // Find the loop header's closing paren, its top-level `:` (range-for
      // marker), and any top-level `;` (classic for -- not our business).
      int depth = 0, angle = 0;
      std::size_t close = toks.size(), colon = 0;
      bool classic = false;
      for (std::size_t j = k + 1; j < toks.size(); ++j) {
        const Tok& u = toks[j];
        if (u.kind != TokKind::kPunct) continue;
        if (u.text == "(" || u.text == "[" || u.text == "{") ++depth;
        if (u.text == ")" || u.text == "]" || u.text == "}") {
          --depth;
          if (depth == 0 && u.text == ")") {
            close = j;
            break;
          }
        }
        if (depth != 1) continue;
        if (u.text == "<") ++angle;
        if (u.text == ">") angle = std::max(0, angle - 1);
        if (u.text == ";") classic = true;
        if (u.text == ":" && angle == 0 && colon == 0) colon = j;
      }
      if (classic || colon == 0 || close >= toks.size()) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        const Tok& u = toks[j];
        if (u.kind != TokKind::kIdent) continue;
        if (names.count(u.text) > 0 || unordered.count(u.text) > 0) {
          report(f, toks[k].line, "unordered-iteration", u.text,
                 "range-for over unordered container '" + u.text +
                     "' (hash order is run- and toolchain-dependent; "
                     "iterate a sorted view or a deterministic index)");
          break;
        }
      }
    }
  }

  // ---- check family: pointer-order ---------------------------------
  // Address-dependent ordering in two shapes: (a) an ordered associative
  // container keyed by a pointer type (std::map<Foo*, ...>), where
  // iteration order is allocation order; (b) std::sort/std::stable_sort
  // over a vector/deque of pointers with the default operator< (exactly
  // two arguments -- a third would be a comparator).
  void pointer_order_pass(const LexedFile& f) {
    static const std::set<std::string> assoc = {"map", "set", "multimap",
                                                "multiset"};
    static const std::set<std::string> seqs = {"vector", "deque"};
    const auto& toks = f.toks;
    std::set<std::string> ptr_seq_names;
    for (std::size_t k = 0; k < toks.size(); ++k) {
      const Tok& t = toks[k];
      if (t.kind != TokKind::kIdent) continue;
      const bool std_qualified =
          k >= 2 && toks[k - 1].kind == TokKind::kPunct &&
          toks[k - 1].text == "::" && toks[k - 2].kind == TokKind::kIdent &&
          toks[k - 2].text == "std";
      if (!std_qualified) continue;
      const bool is_assoc = assoc.count(t.text) > 0;
      const bool is_seq = seqs.count(t.text) > 0;
      if (!is_assoc && !is_seq) continue;
      if (k + 1 >= toks.size() || toks[k + 1].kind != TokKind::kPunct ||
          toks[k + 1].text != "<")
        continue;
      // Does the FIRST template argument name a pointer type? A `*` at
      // angle depth 1 before the first depth-1 comma.
      int angle = 0;
      bool first_arg_ptr = false, past_first_arg = false;
      std::size_t j = k + 1;
      for (; j < toks.size(); ++j) {
        const Tok& u = toks[j];
        if (u.kind != TokKind::kPunct) continue;
        if (u.text == "<") {
          ++angle;
          continue;
        }
        if (u.text == ">") {
          if (--angle == 0) {
            ++j;
            break;
          }
          continue;
        }
        if (angle != 1 || past_first_arg) continue;
        if (u.text == ",") past_first_arg = true;
        if (u.text == "*") first_arg_ptr = true;
      }
      if (!first_arg_ptr) continue;
      if (is_assoc) {
        report(f, t.line, "pointer-order", "std::" + t.text,
               "ordered container keyed by a pointer (iteration order is "
               "allocation-address order, which varies run to run; key by "
               "a stable id)");
        continue;
      }
      // Pointer-element sequence: record the declared name for the sort
      // scan below (skip declarators).
      while (j < toks.size() && toks[j].kind == TokKind::kPunct &&
             (toks[j].text == "&" || toks[j].text == "*"))
        ++j;
      if (j < toks.size() && toks[j].kind == TokKind::kIdent &&
          !is_keyword(toks[j].text))
        ptr_seq_names.insert(toks[j].text);
    }
    if (ptr_seq_names.empty()) return;
    for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
      const Tok& t = toks[k];
      if (t.kind != TokKind::kIdent ||
          (t.text != "sort" && t.text != "stable_sort"))
        continue;
      if (toks[k + 1].kind != TokKind::kPunct || toks[k + 1].text != "(")
        continue;
      const bool member = k > 0 && toks[k - 1].kind == TokKind::kPunct &&
                          (toks[k - 1].text == "." || toks[k - 1].text == "->");
      if (member) continue;  // list::sort etc.: out of scope
      int depth = 0, commas = 0;
      bool mentions = false;
      for (std::size_t j = k + 1; j < toks.size(); ++j) {
        const Tok& u = toks[j];
        if (u.kind == TokKind::kIdent && ptr_seq_names.count(u.text) > 0)
          mentions = true;
        if (u.kind != TokKind::kPunct) continue;
        if (u.text == "(" || u.text == "[" || u.text == "{") ++depth;
        if (u.text == ")" || u.text == "]" || u.text == "}") {
          --depth;
          if (depth == 0 && u.text == ")") break;
        }
        if (u.text == "," && depth == 1) ++commas;
      }
      if (mentions && commas == 1) {
        report(f, t.line, "pointer-order", t.text,
               "sort of pointer elements with the default operator< "
               "(address order varies run to run; pass a comparator over "
               "a stable id)");
      }
    }
  }

  // Token index just past a `<...>` template argument group starting at
  // `at` (returns `at` unchanged when there is none).
  static std::size_t skip_template_args(const std::vector<Tok>& toks,
                                        std::size_t at) {
    if (at >= toks.size() || toks[at].kind != TokKind::kPunct ||
        toks[at].text != "<")
      return at;
    int angle = 0;
    for (std::size_t j = at; j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::kPunct) continue;
      if (toks[j].text == "<") ++angle;
      if (toks[j].text == ">" && --angle == 0) return j + 1;
    }
    return toks.size();
  }

  std::vector<LexedFile> files_;
  std::vector<Finding> findings_;
};

// ------------------------------------------------------------ allowlist

struct AllowEntry {
  std::string path_suffix;
  std::string check;
  std::string identifier;
};

const std::set<std::string>& known_checks() {
  static const std::set<std::string> checks = {
      "global-state",  "determinism", "unordered-iteration", "pointer-order",
      "shard-state",   "mailbox",     "*"};
  return checks;
}

// Unknown check names are hard errors wherever they appear -- in the
// allowlist or in an inline allow() -- so a typo or a suppression of a
// deleted check cannot silently linger.
bool check_known(const std::string& path, int line, const std::string& check) {
  if (known_checks().count(check) > 0) return true;
  std::fprintf(stderr, "qoesim_lint: %s:%d: unknown check '%s'\n",
               path.c_str(), line, check.c_str());
  return false;
}

// Strict loader: a malformed line or unknown check name is a hard error
// (reported with its line number, *ok cleared) instead of being skipped.
std::vector<AllowEntry> load_allowlist(const std::string& path, bool* ok) {
  std::vector<AllowEntry> out;
  std::ifstream in(path);
  std::string line;
  int lineno = 0;
  *ok = true;
  while (std::getline(in, line)) {
    ++lineno;
    std::string body = line;
    if (const auto hash = body.find('#'); hash != std::string::npos)
      body = body.substr(0, hash);
    std::stringstream ss(body);
    AllowEntry e;
    std::string extra;
    if (!(ss >> e.path_suffix)) continue;  // blank or comment-only line
    if (!(ss >> e.check >> e.identifier) || (ss >> extra)) {
      std::fprintf(stderr,
                   "qoesim_lint: %s:%d: malformed allowlist line (want "
                   "'<path-suffix> <check> <identifier>'): %s\n",
                   path.c_str(), lineno, line.c_str());
      *ok = false;
      continue;
    }
    if (!check_known(path, lineno, e.check)) {
      *ok = false;
      continue;
    }
    out.push_back(e);
  }
  return out;
}

bool suppressions_valid(const LexedFile& f) {
  bool ok = true;
  for (const auto& [line, checks] : f.directives.suppress)
    for (const std::string& check : checks)
      ok = check_known(f.path, line, check) && ok;
  return ok;
}

bool allowlisted(const std::vector<AllowEntry>& allow, const Finding& f) {
  for (const AllowEntry& e : allow) {
    if (f.file.size() >= e.path_suffix.size() &&
        f.file.compare(f.file.size() - e.path_suffix.size(),
                       e.path_suffix.size(), e.path_suffix) == 0 &&
        (e.check == "*" || e.check == f.check) &&
        (e.identifier == "*" || e.identifier == f.identifier))
      return true;
  }
  return false;
}

// ----------------------------------------------------------------- main

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Minimal compile_commands.json scan: every `"file": "<path>"` value.
std::vector<std::string> compdb_files(const std::string& path) {
  const std::string json = read_file(path);
  std::vector<std::string> out;
  std::size_t pos = 0;
  while ((pos = json.find("\"file\"", pos)) != std::string::npos) {
    pos = json.find(':', pos);
    if (pos == std::string::npos) break;
    pos = json.find('"', pos);
    if (pos == std::string::npos) break;
    std::size_t end = pos + 1;
    while (end < json.size() && json[end] != '"') {
      if (json[end] == '\\') ++end;
      ++end;
    }
    out.push_back(json.substr(pos + 1, end - pos - 1));
    pos = end;
  }
  return out;
}

int run_fixtures(const std::string& dir) {
  namespace fs = std::filesystem;
  int failures = 0;
  std::vector<fs::path> fixtures;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".cpp") fixtures.push_back(entry.path());
  std::sort(fixtures.begin(), fixtures.end());
  if (fixtures.empty()) {
    std::fprintf(stderr, "qoesim_lint: no fixtures in %s\n", dir.c_str());
    return 1;
  }
  for (const fs::path& p : fixtures) {
    Analyzer az;
    az.add_file(lex(p.string(), read_file(p.string())));
    if (!suppressions_valid(az.files().front())) ++failures;
    az.run();
    std::set<std::pair<int, std::string>> got;
    for (const Finding& f : az.findings()) got.emplace(f.line, f.check);
    const auto& expect = az.files().front().directives.expect;
    for (const auto& [line, check] : expect) {
      if (got.count({line, check}) == 0) {
        std::fprintf(stderr, "MISSED  %s:%d: expected %s finding\n",
                     p.filename().c_str(), line, check.c_str());
        ++failures;
      }
    }
    for (const auto& [line, check] : got) {
      if (expect.count({line, check}) == 0) {
        std::fprintf(stderr, "SPURIOUS %s:%d: unexpected %s finding\n",
                     p.filename().c_str(), line, check.c_str());
        ++failures;
      }
    }
  }
  if (failures == 0) {
    std::printf("qoesim_lint: %zu fixture file(s) OK\n", fixtures.size());
    return 0;
  }
  std::fprintf(stderr, "qoesim_lint: %d fixture expectation(s) failed\n",
               failures);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::string compdb, root, allowlist_path, fixtures;
  std::vector<std::string> explicit_files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--compdb") compdb = next();
    else if (arg == "--root") root = next();
    else if (arg == "--allowlist") allowlist_path = next();
    else if (arg == "--fixtures") fixtures = next();
    else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: qoesim_lint --root <dir> [--compdb <json>] "
          "[--allowlist <f>]\n"
          "       qoesim_lint --fixtures <dir>\n"
          "       qoesim_lint <files...>\n"
          "checks: global-state determinism unordered-iteration\n"
          "        pointer-order shard-state mailbox\n");
      return 0;
    } else {
      explicit_files.push_back(arg);
    }
  }

  if (!fixtures.empty()) return run_fixtures(fixtures);

  // Collect the file set: every TU and header under <root>/src, /bench,
  // and /tools -- the lint patrols the engine, the figure benches, and
  // its own tooling alike. tools/lint/fixtures are deliberate violations
  // and are excluded. A compilation database may still be passed (its src
  // TUs are unioned in, for compatibility with older drivers).
  std::set<std::string> files(explicit_files.begin(), explicit_files.end());
  if (!compdb.empty()) {
    for (const std::string& f : compdb_files(compdb)) {
      const std::string norm = fs::path(f).lexically_normal().string();
      if (norm.find("/src/") != std::string::npos || norm.find("src/") == 0)
        files.insert(norm);
    }
  }
  if (!root.empty()) {
    for (const char* sub : {"src", "bench", "tools"}) {
      const fs::path dir = fs::path(root) / sub;
      if (!fs::exists(dir)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file()) continue;
        const std::string norm = entry.path().lexically_normal().string();
        if (norm.find("lint/fixtures") != std::string::npos) continue;
        const auto ext = entry.path().extension();
        if (ext == ".cpp" || ext == ".hpp" || ext == ".h") files.insert(norm);
      }
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "qoesim_lint: no input files (need --compdb/--root or "
                 "explicit paths)\n");
    return 2;
  }

  Analyzer az;
  bool suppressions_ok = true;
  for (const std::string& f : files) {
    const std::string src = read_file(f);
    if (src.empty()) continue;
    LexedFile lexed = lex(f, src);
    if (!suppressions_valid(lexed)) suppressions_ok = false;
    az.add_file(std::move(lexed));
  }
  if (!suppressions_ok) return 2;  // each bad allow() is reported above
  az.run();

  bool allowlist_ok = true;
  const auto allow = allowlist_path.empty()
                         ? std::vector<AllowEntry>{}
                         : load_allowlist(allowlist_path, &allowlist_ok);
  if (!allowlist_ok) {
    std::fprintf(stderr, "qoesim_lint: invalid allowlist %s\n",
                 allowlist_path.c_str());
    return 2;
  }
  int reported = 0;
  for (const Finding& f : az.findings()) {
    if (allowlisted(allow, f)) continue;
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.check.c_str(), f.message.c_str());
    ++reported;
  }
  if (reported > 0) {
    std::fprintf(stderr, "qoesim_lint: %d finding(s) in %zu file(s)\n",
                 reported, files.size());
    return 1;
  }
  std::printf("qoesim_lint: clean (%zu files)\n", files.size());
  return 0;
}
