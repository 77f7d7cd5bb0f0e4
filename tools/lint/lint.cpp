#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <regex>
#include <set>
#include <sstream>

#include "lexer.hpp"
#include "parse.hpp"

namespace graffix::lint {

namespace {

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

std::string normalized(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

bool path_contains(const std::string& path, std::string_view piece) {
  const auto pos = path.find(piece);
  if (pos == std::string::npos) return false;
  // Require a component boundary on the left so "mysrc/x" != "src/x".
  return pos == 0 || path[pos - 1] == '/';
}

bool path_ends_with(const std::string& path, std::string_view tail) {
  return path.size() >= tail.size() &&
         path.compare(path.size() - tail.size(), tail.size(), tail) == 0;
}

struct Scope {
  bool substrate_allowlisted;  // exempt from R5/R6 (the substrate
                               // implements the channels)
  bool in_src;                 // R2 applies
  bool timer_allowlisted;      // R2 wall-clock allowlist
  bool in_transform_or_sim;    // R4 applies
  bool in_serve;               // R7 applies
  bool serve_transport_home;   // R7 raw-write exemption (FdTransport)
};

Scope scope_of(const std::string& path) {
  Scope s{};
  // The substrate pair: the header templates and the worker-pool
  // translation unit behind them.
  s.substrate_allowlisted = path_contains(path, "util/parallel.hpp") ||
                            path_contains(path, "util/parallel.cpp");
  s.in_src = path_contains(path, "src/");
  s.timer_allowlisted = path_contains(path, "util/timer.hpp");
  s.in_transform_or_sim =
      path_contains(path, "src/transform/") || path_contains(path, "src/sim/");
  s.in_serve = path_contains(path, "src/serve/");
  s.serve_transport_home =
      s.in_serve && path_ends_with(path, "serve/session.cpp");
  return s;
}

// ---------------------------------------------------------------------------
// Matching helpers over the joined code text
// ---------------------------------------------------------------------------

struct CodeIndex {
  std::string text;                     // all code lines joined with '\n'
  std::vector<std::size_t> line_start;  // offset of each line in text
};

CodeIndex join_code(const std::vector<ScannedLine>& lines) {
  CodeIndex idx;
  for (const auto& line : lines) {
    idx.line_start.push_back(idx.text.size());
    idx.text += line.code;
    idx.text.push_back('\n');
  }
  return idx;
}

int line_of(const CodeIndex& idx, std::size_t offset) {
  const auto it = std::upper_bound(idx.line_start.begin(),
                                   idx.line_start.end(), offset);
  return static_cast<int>(it - idx.line_start.begin());
}

/// All whole-word identifiers declared as std::unordered_{map,set} in the
/// file: `unordered_map<...> name` / `unordered_set<...>& name`.
std::vector<std::string> unordered_container_names(const CodeIndex& idx) {
  std::vector<std::string> names;
  static const std::regex kDecl(R"(\bunordered_(?:map|set)\s*<)");
  const std::string& t = idx.text;
  for (auto it = std::sregex_iterator(t.begin(), t.end(), kDecl);
       it != std::sregex_iterator(); ++it) {
    std::size_t p = static_cast<std::size_t>(it->position()) + it->length();
    int depth = 1;  // just consumed the '<'
    while (p < t.size() && depth > 0) {
      if (t[p] == '<') ++depth;
      if (t[p] == '>') --depth;
      ++p;
    }
    while (p < t.size() &&
           (std::isspace(static_cast<unsigned char>(t[p])) || t[p] == '&' ||
            t[p] == '*')) {
      ++p;
    }
    std::string name;
    while (p < t.size() && (std::isalnum(static_cast<unsigned char>(t[p])) ||
                            t[p] == '_')) {
      name.push_back(t[p]);
      ++p;
    }
    if (!name.empty() && name != "const") names.push_back(name);
  }
  return names;
}

bool contains_word(const std::string& haystack, const std::string& word) {
  std::size_t pos = 0;
  while ((pos = haystack.find(word, pos)) != std::string::npos) {
    const bool left_ok =
        pos == 0 || (!std::isalnum(static_cast<unsigned char>(
                         haystack[pos - 1])) &&
                     haystack[pos - 1] != '_');
    const std::size_t end = pos + word.size();
    const bool right_ok =
        end >= haystack.size() ||
        (!std::isalnum(static_cast<unsigned char>(haystack[end])) &&
         haystack[end] != '_');
    if (left_ok && right_ok) return true;
    ++pos;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

struct PendingSuppression {
  int line = 0;
  std::string rule;
  std::string reason;
  bool used = false;
  bool reported = false;  // already produced a SUP diagnostic (bad reason)
};

std::string trim(std::string s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.erase(s.begin());
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.pop_back();
  }
  return s;
}

// ---------------------------------------------------------------------------
// Cross-file facts (R7 ErrorCode emit coverage) and per-file carriers
// ---------------------------------------------------------------------------

struct TreeFacts {
  struct Site {
    std::string file;
    int line = 0;
  };
  std::map<std::string, Site> error_enumerators;  // ErrorCode member -> decl
  std::set<std::string> error_usages;             // non-`case` ErrorCode::X
};

struct FileLint {
  std::string path;
  std::vector<Diagnostic> raw;
  std::vector<PendingSuppression> pending;
};

// ---------------------------------------------------------------------------
// R5/R6 helpers over the parse model
// ---------------------------------------------------------------------------

const std::vector<std::string>& substrate_entry_points() {
  static const std::vector<std::string> kEntries = {
      "parallel_tasks", "parallel_for", "parallel_for_dynamic",
      "pool_dispatch"};
  return kEntries;
}

bool sanctioned_channel_type(const std::string& type) {
  return type.find("SweepScratch") != std::string::npos ||
         type.find("atomic") != std::string::npos;
}

bool sanctioned_channel_class(const std::string& cls) {
  return cls == "SweepScratch";
}

bool lock_type(const std::string& type) {
  return type.find("scoped_lock") != std::string::npos ||
         type.find("lock_guard") != std::string::npos ||
         type.find("unique_lock") != std::string::npos;
}

bool vector_not_arena(const std::string& type) {
  if (type.find("Arena") != std::string::npos) return false;
  return contains_word(type, "vector");
}

/// Growth through a reference or pointer is charged to whoever owns the
/// container (e.g. a per-task segment the caller sized, a caller-reserved
/// scratch buffer), not to the hot path holding the view.
bool non_owning_type(const std::string& type) {
  return !type.empty() &&
         (type.back() == '&' || type.back() == '*');
}

/// The lvalue behind a write: base identifier plus the fields and
/// subscript identifiers crossed on the way.
struct Lvalue {
  std::size_t base = static_cast<std::size_t>(-1);
  std::string base_name;
  std::string field;  // field adjacent to the base (this->field case)
  std::vector<std::string> index_idents;
};

bool walk_lvalue_left(const FileModel& m, std::size_t from, Lvalue& out) {
  const std::size_t npos = m.tokens.size();
  std::size_t j = from;
  for (int guard = 0; guard < 64; ++guard) {
    const Token& t = m.tokens[j];
    if (t.text == ")" || t.text == "]") {
      const std::size_t open = m.match[j];
      if (open == npos || open == 0) return false;
      if (t.text == "]") {
        for (std::size_t k = open + 1; k < j; ++k) {
          if (m.tokens[k].kind == Token::Kind::Ident) {
            out.index_idents.push_back(m.tokens[k].text);
          }
        }
      }
      j = open - 1;
      continue;
    }
    if (t.kind == Token::Kind::Ident) {
      if (j > 0 && (m.tokens[j - 1].text == "." ||
                    m.tokens[j - 1].text == "->")) {
        out.field = t.text;
        if (j < 2) return false;
        j -= 2;
        continue;
      }
      out.base = j;
      out.base_name = t.text;
      return true;
    }
    return false;
  }
  return false;
}

/// Rightward mini-walk for prefix ++/--.
bool walk_lvalue_right(const FileModel& m, std::size_t from, Lvalue& out) {
  const std::size_t n = m.tokens.size();
  std::size_t j = from;
  if (j >= n || m.tokens[j].kind != Token::Kind::Ident) return false;
  out.base = j;
  out.base_name = m.tokens[j].text;
  ++j;
  while (j + 1 < n &&
         (m.tokens[j].text == "." || m.tokens[j].text == "->")) {
    out.field = m.tokens[j + 1].text;
    j += 2;
  }
  while (j < n && m.tokens[j].text == "[") {
    const std::size_t close = m.match[j];
    if (close == n) break;
    for (std::size_t k = j + 1; k < close; ++k) {
      if (m.tokens[k].kind == Token::Kind::Ident) {
        out.index_idents.push_back(m.tokens[k].text);
      }
    }
    j = close + 1;
  }
  return true;
}

struct ModelIndex {
  std::map<int, std::vector<int>> decls_by_scope;  // scope -> decl indices

  explicit ModelIndex(const FileModel& m) {
    for (std::size_t i = 0; i < m.decls.size(); ++i) {
      decls_by_scope[m.decls[i].scope].push_back(static_cast<int>(i));
    }
  }
};

/// Union of lambda/function parameter names from the write site outward,
/// stopping at (and including) the outermost parallel-marked scope: a
/// subscript by one of these is the disjoint-slot-by-task-index contract.
std::set<std::string> task_index_params(const FileModel& m, std::size_t tok) {
  std::set<std::string> out;
  int last_parallel = -1;
  for (int s = m.scope_of[tok]; s != -1;
       s = m.scopes[static_cast<std::size_t>(s)].parent) {
    if (m.scopes[static_cast<std::size_t>(s)].parallel) last_parallel = s;
  }
  for (int s = m.scope_of[tok]; s != -1;
       s = m.scopes[static_cast<std::size_t>(s)].parent) {
    const ScopeNode& sn = m.scopes[static_cast<std::size_t>(s)];
    if (sn.kind == ScopeNode::Kind::Lambda ||
        sn.kind == ScopeNode::Kind::Function) {
      out.insert(sn.params.begin(), sn.params.end());
    }
    if (s == last_parallel) break;
  }
  return out;
}

/// True when `name` is a task parameter or a local whose initializer
/// derives from one (bounded taint: `EdgeId pos = offsets[u]` makes `pos`
/// a task-index derivative, so `targets[pos]` is the disjoint row-cursor
/// idiom). A loop counter initialized from a constant (`l = 0`) stays
/// untainted — the lane-table bug shape keeps firing.
bool tainted_by_params(const FileModel& m, const std::string& name,
                       std::size_t site, const std::set<std::string>& params,
                       int depth) {
  if (params.count(name) > 0) return true;
  if (depth <= 0) return false;
  const Decl* d = m.resolve(name, site);
  if (d == nullptr || !m.in_parallel(d->tok)) return false;
  // A range-for element (`for (NodeId v : nbrs(u))`) does NOT inherit the
  // range's taint: distinct tasks' ranges can hold the same element, so
  // `x[v]` is not a disjoint slot.
  if (d->tok + 1 < m.tokens.size() && m.tokens[d->tok + 1].text == ":") {
    return false;
  }
  int bdepth = 0;
  for (std::size_t k = d->tok + 1; k < m.tokens.size(); ++k) {
    const std::string& t = m.tokens[k].text;
    if (t == "(" || t == "[" || t == "{") {
      ++bdepth;
    } else if (t == ")" || t == "]" || t == "}") {
      if (bdepth == 0) break;
      --bdepth;
    } else if (t == ";" && bdepth == 0) {
      break;
    } else if (m.tokens[k].kind == Token::Kind::Ident && t != name) {
      if (tainted_by_params(m, t, d->tok, params, depth - 1)) return true;
    }
  }
  return false;
}

/// A scoped_lock/lock_guard/unique_lock declared between the write and
/// the parallel-region root serializes the write.
bool lock_held(const FileModel& m, const ModelIndex& mi, std::size_t tok) {
  for (int s = m.scope_of[tok]; s != -1;
       s = m.scopes[static_cast<std::size_t>(s)].parent) {
    const auto it = mi.decls_by_scope.find(s);
    if (it != mi.decls_by_scope.end()) {
      for (const int di : it->second) {
        if (lock_type(m.decls[static_cast<std::size_t>(di)].type)) return true;
      }
    }
    if (m.scopes[static_cast<std::size_t>(s)].parallel) break;
  }
  return false;
}

const Decl* class_member(const FileModel& m, const ModelIndex& mi,
                         std::size_t tok, const std::string& name) {
  const int cls = m.enclosing(tok, ScopeNode::Kind::Class);
  if (cls == -1) return nullptr;
  const auto it = mi.decls_by_scope.find(cls);
  if (it == mi.decls_by_scope.end()) return nullptr;
  for (const int di : it->second) {
    if (m.decls[static_cast<std::size_t>(di)].name == name) {
      return &m.decls[static_cast<std::size_t>(di)];
    }
  }
  return nullptr;
}

std::string enclosing_class_name(const FileModel& m, std::size_t tok) {
  const int cls = m.enclosing(tok, ScopeNode::Kind::Class);
  if (cls != -1) return m.scopes[static_cast<std::size_t>(cls)].name;
  const int fn = m.enclosing(tok, ScopeNode::Kind::Function);
  if (fn != -1) return m.scopes[static_cast<std::size_t>(fn)].class_name;
  return "";
}

}  // namespace

// ---------------------------------------------------------------------------
// Rule engine
// ---------------------------------------------------------------------------

namespace {

using DiagFn = std::function<void(int, const char*, std::string)>;

void rules_line_level(const Scope& scope,
                      const std::vector<ScannedLine>& lines,
                      const CodeIndex& idx, const DiagFn& diag) {
  // --- R1: no omp pragmas (any file) --------------------------------------
  // The lexer splices backslash continuations, so a multi-line directive
  // is already one logical line here.
  {
    static const std::regex kOmp(R"(^[ \t]*#[ \t]*pragma[ \t]+omp\b)");
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (std::regex_search(lines[i].code, kOmp)) {
        diag(static_cast<int>(i) + 1, "R1",
             "`#pragma omp`: the worker pool is the only host parallel "
             "runtime; use the effective_workers()-clamped wrappers in "
             "util/parallel.hpp (parallel_tasks, parallel_for, "
             "parallel_for_dynamic)");
      }
    }
  }

  // --- R2: nondeterminism sources in library code -------------------------
  if (scope.in_src) {
    struct Pattern {
      const std::regex re;
      const char* what;
    };
    static const Pattern kSources[] = {
        {std::regex(R"(\b(?:rand|srand|drand48|lrand48|random)\s*\()"),
         "C rand()-family call; use util/rng.hpp streams seeded from the "
         "experiment seed"},
        {std::regex(R"(\brandom_device\b)"),
         "std::random_device is nondeterministic; derive seeds with "
         "SplitMix64 from the experiment seed"},
        {std::regex(R"(\bmt19937(?:_64)?\s+\w+\s*(?:;|\{\s*\}))"),
         "unseeded std::mt19937; library randomness must come from "
         "util/rng.hpp streams seeded from the experiment seed"},
    };
    const std::string& t = idx.text;
    for (const Pattern& p : kSources) {
      for (auto it = std::sregex_iterator(t.begin(), t.end(), p.re);
           it != std::sregex_iterator(); ++it) {
        diag(line_of(idx, static_cast<std::size_t>(it->position())), "R2",
             p.what);
      }
    }
    if (!scope.timer_allowlisted) {
      static const std::regex kClock(
          R"(\b(?:steady_clock|system_clock|high_resolution_clock)\b|\b(?:gettimeofday|clock_gettime|timespec_get)\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\))");
      for (auto it = std::sregex_iterator(t.begin(), t.end(), kClock);
           it != std::sregex_iterator(); ++it) {
        diag(line_of(idx, static_cast<std::size_t>(it->position())), "R2",
             "wall-clock read outside util/timer.hpp; route timing through "
             "WallTimer/ScopedAccumulator (telemetry only, never outputs)");
      }
    }
    // Range-for over an unordered container: iteration order is
    // implementation-defined, so it may never feed an output path.
    const std::vector<std::string> unordered = unordered_container_names(idx);
    if (!unordered.empty()) {
      static const std::regex kFor(R"(\bfor\s*\()");
      for (auto it = std::sregex_iterator(t.begin(), t.end(), kFor);
           it != std::sregex_iterator(); ++it) {
        const auto open =
            static_cast<std::size_t>(it->position()) + it->length() - 1;
        std::size_t p = open + 1;
        int depth = 1;
        std::size_t colon = std::string::npos;
        while (p < t.size() && depth > 0) {
          const char c = t[p];
          if (c == '(' || c == '[' || c == '{') ++depth;
          if (c == ')' || c == ']' || c == '}') --depth;
          if (c == ':' && depth == 1) {
            const bool scope_colon =
                (p > 0 && t[p - 1] == ':') || (p + 1 < t.size() && t[p + 1] == ':');
            if (!scope_colon && colon == std::string::npos) colon = p;
          }
          ++p;
        }
        if (colon == std::string::npos || p == 0) continue;
        const std::string range_expr = t.substr(colon + 1, p - colon - 2);
        for (const std::string& name : unordered) {
          if (contains_word(range_expr, name)) {
            diag(line_of(idx, static_cast<std::size_t>(it->position())), "R2",
                 "range-for over std::unordered container `" + name +
                     "`; iteration order is implementation-defined and may "
                     "not feed any output (fix the order or certify with a "
                     "suppression)");
            break;
          }
        }
      }
    }
  }

  // --- R4: std::sort in src/transform/ and src/sim/ -----------------------
  if (scope.in_transform_or_sim) {
    static const std::regex kSort(R"(\bstd\s*::\s*sort\s*\()");
    const std::string& t = idx.text;
    for (auto it = std::sregex_iterator(t.begin(), t.end(), kSort);
         it != std::sregex_iterator(); ++it) {
      diag(line_of(idx, static_cast<std::size_t>(it->position())), "R4",
           "std::sort in transform/sim code: tie order feeds the CSR "
           "layout. Use std::stable_sort, or certify that the comparator "
           "is a total order on element values with an allow(R4) "
           "annotation");
    }
  }
}

// --- R5: parallel-capture safety ------------------------------------------

void classify_r5_write(const FileModel& m, const ModelIndex& mi,
                       const Lvalue& lv, const std::string& how,
                       const DiagFn& diag) {
  const std::size_t tok = lv.base;
  // Disjoint-slot contract: the slot is subscripted by a task parameter
  // or a local derived from one (row cursor).
  const std::set<std::string> params = task_index_params(m, tok);
  for (const std::string& ix : lv.index_idents) {
    if (tainted_by_params(m, ix, tok, params, 3)) return;
  }
  if (lock_held(m, mi, tok)) return;

  const int line = m.tokens[tok].line;
  auto flag_member = [&](const std::string& name, const Decl* d) {
    if (d != nullptr && sanctioned_channel_type(d->type)) return;
    const std::string cls = enclosing_class_name(m, tok);
    if (sanctioned_channel_class(cls)) return;  // channel implementation
    diag(line, "R5",
         how + " `" + name + "` — a " +
             (cls.empty() ? std::string("class") : cls) +
             " member mutated from a parallel region is shared across "
             "concurrent tasks (the PR 6 lane-table bug class). Move it "
             "into per-worker SweepScratch, route it through "
             "std::atomic, index it by the task parameter, or certify "
             "with allow(R5)");
  };

  if (lv.base_name == "this") {
    if (lv.field.empty()) return;
    flag_member(lv.field, class_member(m, mi, tok, lv.field));
    return;
  }
  const Decl* d = m.resolve(lv.base_name, tok);
  if (d != nullptr) {
    const ScopeNode::Kind dk =
        m.scopes[static_cast<std::size_t>(d->scope)].kind;
    if (dk == ScopeNode::Kind::Class) {
      flag_member(lv.base_name, d);
      return;
    }
    if (dk == ScopeNode::Kind::File || dk == ScopeNode::Kind::Namespace) {
      if (sanctioned_channel_type(d->type)) return;
      diag(line, "R5",
           how + " global `" + lv.base_name +
               "` from a parallel region; use std::atomic or certify "
               "with allow(R5)");
      return;
    }
    // Local or parameter: flag only when reached through a by-reference
    // capture across a CONCURRENCY BOUNDARY — a lambda where parallelism
    // starts (marked parallel while its lexical parent is not). Interior
    // lambdas of an already-parallel region (helpers defined and called
    // within one task) share task-private state, which is fine.
    for (int s = m.scope_of[tok]; s != -1 && s != d->scope;
         s = m.scopes[static_cast<std::size_t>(s)].parent) {
      const ScopeNode& sn = m.scopes[static_cast<std::size_t>(s)];
      if (sn.kind != ScopeNode::Kind::Lambda) continue;
      const bool boundary =
          sn.parallel &&
          (sn.parent == -1 ||
           !m.scopes[static_cast<std::size_t>(sn.parent)].parallel);
      if (!boundary) continue;
      bool by_ref = sn.cap_ref_default;
      bool named = false;
      for (const Capture& c : sn.captures) {
        if (c.name == lv.base_name) {
          by_ref = c.by_ref;
          named = true;
          break;
        }
      }
      if (!named && sn.cap_val_default) by_ref = false;
      if (!by_ref) return;  // captured by value: the write hits a copy
      if (sanctioned_channel_type(d->type)) return;
      diag(line, "R5",
           how + " `" + lv.base_name +
               "` — a by-reference capture of state declared outside the "
               "parallel lambda; every worker aliases it. Make it a "
               "per-worker slot indexed by the task parameter, a "
               "SweepScratch channel, or "
               "std::atomic — or certify with allow(R5)");
      return;
    }
    return;  // plain local of the parallel body
  }
  // Unresolved: fall back to the member naming convention.
  const Decl* member = class_member(m, mi, tok, lv.base_name);
  if (member != nullptr) {
    flag_member(lv.base_name, member);
    return;
  }
  if (lv.base_name.size() > 1 && lv.base_name.back() == '_') {
    flag_member(lv.base_name, nullptr);
  }
}

void rules_r5_r6(const Scope& scope, const FileModel& m, const DiagFn& diag) {
  const std::size_t n = m.tokens.size();
  if (n == 0) return;
  const ModelIndex mi(m);

  static const std::set<std::string> kAssign = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
  static const std::set<std::string> kMutators = {
      "push_back", "emplace_back", "pop_back", "clear",  "resize",
      "reserve",   "assign",       "insert",   "erase",  "emplace"};
  static const std::set<std::string> kGrowth = {
      "push_back", "emplace_back", "resize", "reserve",
      "assign",    "insert",       "emplace"};

  auto in_engine_hot_method = [&](std::size_t tok) {
    for (int s = m.scope_of[tok]; s != -1;
         s = m.scopes[static_cast<std::size_t>(s)].parent) {
      const ScopeNode& sn = m.scopes[static_cast<std::size_t>(s)];
      if (sn.kind != ScopeNode::Kind::Function) continue;
      if (sn.class_name != "Engine") continue;
      if (sn.name.rfind("sweep", 0) == 0 || sn.name.rfind("replay", 0) == 0 ||
          sn.name == "functional_block" || sn.name == "account_block") {
        return true;
      }
    }
    return false;
  };
  auto in_r6_region = [&](std::size_t tok) {
    return m.in_parallel(tok) || in_engine_hot_method(tok);
  };

  // One diagnostic per (rule, line): a chained `a = b = c` or a loop of
  // writes to the same slot reads as one finding.
  std::set<std::pair<std::string, int>> emitted;
  auto once = [&](int line, const char* rule, std::string msg) {
    if (emitted.emplace(rule, line).second) diag(line, rule, std::move(msg));
  };
  const DiagFn once_fn = once;

  auto resolve_container_type = [&](const Lvalue& lv,
                                    std::size_t tok) -> std::string {
    if (lv.base_name == "this") {
      const Decl* d = class_member(m, mi, tok, lv.field);
      return d != nullptr ? d->type : "";
    }
    const Decl* d = m.resolve(lv.base_name, tok);
    if (d == nullptr) d = class_member(m, mi, tok, lv.base_name);
    if (d == nullptr) return "";
    if (!lv.field.empty() && lv.field != lv.base_name) {
      // base.field.push_back(...): the field's type decides, and we only
      // know it when the base is `this`. Unknown otherwise.
      return "";
    }
    return d->type;
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = m.tokens[i];

    // ---- R6: allocation in hot paths (independent of write analysis) ----
    if (t.kind == Token::Kind::Ident && in_r6_region(i)) {
      if (t.text == "new" && !(i > 0 && m.tokens[i - 1].text == "::")) {
        once(t.line, "R6",
             "`new` in a hot parallel/sweep path; allocate through the "
             "arena (ArenaBuffer/ArenaVector, util/arena.hpp) or certify "
             "with allow(R6)");
      } else if (t.text == "make_unique" || t.text == "make_shared") {
        once(t.line, "R6",
             "`" + t.text +
                 "` in a hot parallel/sweep path; allocate through the "
                 "arena (ArenaBuffer/ArenaVector, util/arena.hpp) or "
                 "certify with allow(R6)");
      } else if (kGrowth.count(t.text) > 0 && i >= 2 && i + 1 < n &&
                 m.tokens[i + 1].text == "(" &&
                 (m.tokens[i - 1].text == "." ||
                  m.tokens[i - 1].text == "->")) {
        Lvalue lv;
        if (walk_lvalue_left(m, i - 2, lv)) {
          // Growth into a slot subscripted by the task index
          // (`block_lists[blk].push_back`, `adj[s].reserve`) builds
          // slot-owned output, not per-execution scratch — skip.
          bool slot_owned = false;
          if (m.in_parallel(i)) {
            const std::set<std::string> params = task_index_params(m, i);
            for (const std::string& ix : lv.index_idents) {
              if (tainted_by_params(m, ix, i, params, 3)) slot_owned = true;
            }
          }
          const std::string type = resolve_container_type(lv, lv.base);
          if (!slot_owned && vector_not_arena(type) && !non_owning_type(type)) {
            once(m.tokens[i].line, "R6",
                 "std::vector growth (`" + lv.base_name + "." + t.text +
                     "`) in a hot parallel/sweep path; use "
                     "ArenaVector/ArenaBuffer (util/arena.hpp) or certify "
                     "with allow(R6)");
          }
        }
      }
    }

    // ---- R5: writes in parallel regions ---------------------------------
    if (!m.in_parallel(i)) continue;

    if (t.kind == Token::Kind::Punct && kAssign.count(t.text) > 0 && i > 0) {
      Lvalue lv;
      if (walk_lvalue_left(m, i - 1, lv)) {
        classify_r5_write(m, mi, lv, "write to", once_fn);
      }
    } else if (t.text == "++" || t.text == "--") {
      Lvalue lv;
      bool ok = false;
      if (i > 0 && (m.tokens[i - 1].kind == Token::Kind::Ident ||
                    m.tokens[i - 1].text == ")" ||
                    m.tokens[i - 1].text == "]")) {
        ok = walk_lvalue_left(m, i - 1, lv);
      } else if (i + 1 < n) {
        ok = walk_lvalue_right(m, i + 1, lv);
      }
      if (ok) classify_r5_write(m, mi, lv, "increment of", once_fn);
    } else if (t.kind == Token::Kind::Ident && kMutators.count(t.text) > 0 &&
               i >= 2 && i + 1 < n && m.tokens[i + 1].text == "(" &&
               (m.tokens[i - 1].text == "." || m.tokens[i - 1].text == "->")) {
      Lvalue lv;
      if (walk_lvalue_left(m, i - 2, lv)) {
        classify_r5_write(m, mi, lv, "mutating call `" + t.text + "` on",
                          once_fn);
      }
    }
  }

  // ---- R6: sized std::vector construction in hot regions -----------------
  for (const Decl& d : m.decls) {
    if (!d.sized_ctor || !vector_not_arena(d.type) || non_owning_type(d.type)) {
      continue;
    }
    if (!in_r6_region(d.tok)) continue;
    diag(d.line, "R6",
         "sized std::vector `" + d.name +
             "` constructed in a hot parallel/sweep path (allocates on "
             "every execution); hoist it or use ArenaVector/ArenaBuffer "
             "(util/arena.hpp), or certify with allow(R6)");
  }
  (void)scope;
}

// --- R7: serve protocol hygiene -------------------------------------------

void rules_r7(const Scope& scope, const std::string& path, const FileModel& m,
              const DiagFn& diag, TreeFacts& facts) {
  const std::size_t n = m.tokens.size();

  // (a) JsonWriter keys must be call-site string literals: a
  // data-dependent key (or key order) breaks the byte-stable response
  // contract (DESIGN.md §10).
  static const std::set<std::string> kKeyed = {
      "field_u64", "field_double", "field_bool", "field_string",
      "open_array", "open_object"};
  for (std::size_t i = 2; i + 2 < n; ++i) {
    const Token& t = m.tokens[i];
    if (t.kind != Token::Kind::Ident || kKeyed.count(t.text) == 0) continue;
    if (m.tokens[i - 1].text != "." && m.tokens[i - 1].text != "->") continue;
    if (m.tokens[i + 1].text != "(") continue;
    const Token& a = m.tokens[i + 2];
    if (a.text == ")") continue;  // anonymous (array element) overload
    if (a.kind == Token::Kind::String &&
        (m.tokens[i + 3].text == "," || m.tokens[i + 3].text == ")")) {
      continue;
    }
    diag(t.line, "R7",
         "JsonWriter `" + t.text +
             "` key is not a string literal: keys computed from data can "
             "emit in data-dependent order, breaking byte-stable "
             "responses; enumerate literal keys at the call site or "
             "certify the ordering with allow(R7)");
  }

  // (b) Raw writes to the transport belong to FdTransport
  // (serve/session.cpp); anywhere else they bypass framing and interleave
  // with responses.
  if (!scope.serve_transport_home) {
    static const std::set<std::string> kRaw = {"write", "printf", "puts",
                                               "putchar", "fwrite"};
    static const std::set<std::string> kStreamCheck = {"fprintf", "fputs"};
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const Token& t = m.tokens[i];
      if (t.kind != Token::Kind::Ident) continue;
      if (t.text == "cout") {
        diag(t.line, "R7",
             "std::cout in serve code: stdout is the stdio transport; all "
             "response bytes must flow through FdTransport "
             "(serve/session.cpp)");
        continue;
      }
      if (m.tokens[i + 1].text != "(") continue;
      const bool named_raw = kRaw.count(t.text) > 0;
      const bool stream_call = kStreamCheck.count(t.text) > 0;
      if (!named_raw && !stream_call) continue;
      if (stream_call) {
        const std::size_t close = m.match[i + 1];
        bool to_stderr = false;
        for (std::size_t k = i + 2; k < close && k < n; ++k) {
          if (m.tokens[k].text == "stderr") to_stderr = true;
        }
        if (to_stderr) continue;  // diagnostics channel, not the transport
      }
      diag(t.line, "R7",
           "raw `" + t.text +
           "` in serve code outside FdTransport (serve/session.cpp): "
           "response bytes that bypass write_line() lose framing and "
           "byte-stability; route through the transport or certify with "
           "allow(R7)");
    }
  }

  // (c) ErrorCode coverage facts: enumerators vs non-`case` usages.
  for (std::size_t s = 0; s < m.scopes.size(); ++s) {
    const ScopeNode& sn = m.scopes[s];
    if (sn.kind != ScopeNode::Kind::Enum || sn.name != "ErrorCode") continue;
    for (const Decl& d : m.decls) {
      if (d.scope != static_cast<int>(s)) continue;
      facts.error_enumerators.emplace(d.name,
                                      TreeFacts::Site{path, d.line});
    }
  }
  for (std::size_t i = 0; i + 2 < n; ++i) {
    if (m.tokens[i].text != "ErrorCode" || m.tokens[i + 1].text != "::" ||
        m.tokens[i + 2].kind != Token::Kind::Ident) {
      continue;
    }
    if (i > 0 && m.tokens[i - 1].text == "case") continue;
    facts.error_usages.insert(m.tokens[i + 2].text);
  }
}

// ---------------------------------------------------------------------------
// Per-file collection, cross-file finalization, suppression application
// ---------------------------------------------------------------------------

FileLint lint_one(std::string path_label, std::string_view content,
                  TreeFacts& facts) {
  FileLint fl;
  fl.path = normalized(std::move(path_label));
  const Scope scope = scope_of(fl.path);
  const std::vector<ScannedLine> lines = scan_lines(content);
  const CodeIndex idx = join_code(lines);

  auto diag = [&](int line, const char* rule, std::string message) {
    fl.raw.push_back({fl.path, line, rule, std::move(message)});
  };

  // --- Suppression directives (must start the comment) -------------------
  static const std::regex kAllow(
      R"(^\s*graffix-lint\s*:\s*allow\(\s*(R[0-9]+)\s*\)\s*(.*)$)");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (std::regex_search(lines[i].comment, m, kAllow)) {
      PendingSuppression sup;
      sup.line = static_cast<int>(i) + 1;
      sup.rule = m[1].str();
      sup.reason = trim(m[2].str());
      if (sup.reason.empty()) {
        fl.raw.push_back({fl.path, sup.line, "SUP",
                          "suppression for " + sup.rule +
                              " has no reason; write `allow(" + sup.rule +
                              ") <why this is safe>`"});
        sup.reported = true;
      }
      fl.pending.push_back(std::move(sup));
    }
  }

  rules_line_level(scope, lines, idx, diag);

  // The scope-aware rules. The substrate is exempt from R5/R6: it
  // IMPLEMENTS the sanctioned channels, so its internal captures are the
  // policy, not a violation of it.
  if (!scope.substrate_allowlisted || scope.in_serve) {
    FileModel model = build_model(lines);
    mark_parallel(model, substrate_entry_points());
    if (!scope.substrate_allowlisted) rules_r5_r6(scope, model, diag);
    if (scope.in_serve) rules_r7(scope, fl.path, model, diag, facts);
  }
  return fl;
}

void finalize_tree(const TreeFacts& facts, std::vector<FileLint>& files) {
  for (const auto& [name, site] : facts.error_enumerators) {
    if (facts.error_usages.count(name) > 0) continue;
    for (FileLint& fl : files) {
      if (fl.path != site.file) continue;
      fl.raw.push_back(
          {fl.path, site.line, "R7",
           "ErrorCode::" + name +
               " has no emit site in the linted set: dead protocol "
               "vocabulary, or a failure path that can never reach the "
               "client. Wire it to a respond_error() call, drop the "
               "enumerator, or certify it as reserved with allow(R7)"});
      break;
    }
  }
}

Result apply_suppressions(std::vector<FileLint> files) {
  Result result;
  for (FileLint& fl : files) {
    for (Diagnostic& d : fl.raw) {
      bool suppressed = false;
      if (d.rule != "SUP") {
        for (PendingSuppression& sup : fl.pending) {
          if (sup.rule == d.rule && !sup.reason.empty() &&
              (sup.line == d.line || sup.line == d.line - 1)) {
            if (!sup.used) {
              result.suppressions.push_back(
                  {fl.path, sup.line, sup.rule, sup.reason});
              sup.used = true;
            }
            suppressed = true;
            break;
          }
        }
      }
      if (!suppressed) result.diagnostics.push_back(std::move(d));
    }
    for (const PendingSuppression& sup : fl.pending) {
      if (!sup.used && !sup.reported) {
        result.diagnostics.push_back(
            {fl.path, sup.line, "SUP",
             "unused suppression for " + sup.rule +
                 " (no matching diagnostic on this or the next line); "
                 "delete it"});
      }
    }
  }
  std::sort(result.diagnostics.begin(), result.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  std::sort(result.suppressions.begin(), result.suppressions.end(),
            [](const SuppressionUse& a, const SuppressionUse& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return result;
}

}  // namespace

Result lint_source(std::string path_label, std::string_view content) {
  TreeFacts facts;
  std::vector<FileLint> files;
  files.push_back(lint_one(std::move(path_label), content, facts));
  finalize_tree(facts, files);
  return apply_suppressions(std::move(files));
}

Result lint_paths(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> file_names;
  Result pre;  // path errors surface as diagnostics
  auto is_source = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
  };
  for (const std::string& root : paths) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (auto it = fs::recursive_directory_iterator(root, ec);
           it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file(ec) && is_source(it->path())) {
          file_names.push_back(it->path().string());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      file_names.push_back(root);
    } else {
      pre.diagnostics.push_back(
          {root, 0, "SUP", "path does not exist or is not readable"});
    }
  }
  std::sort(file_names.begin(), file_names.end());
  file_names.erase(std::unique(file_names.begin(), file_names.end()),
                   file_names.end());

  TreeFacts facts;
  std::vector<FileLint> files;
  for (const std::string& file : file_names) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      pre.diagnostics.push_back({file, 0, "SUP", "failed to read file"});
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string content = buffer.str();
    files.push_back(lint_one(file, content, facts));
  }
  finalize_tree(facts, files);
  Result result = apply_suppressions(std::move(files));
  result.diagnostics.insert(result.diagnostics.begin(),
                            pre.diagnostics.begin(), pre.diagnostics.end());
  return result;
}

namespace {

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {"R1", "R2", "R4", "R5",
                                                  "R6", "R7"};
  return kRules;
}

std::map<std::string, std::size_t> suppression_counts(const Result& result) {
  std::map<std::string, std::size_t> counts;
  for (const std::string& rule : all_rules()) counts[rule] = 0;
  for (const SuppressionUse& s : result.suppressions) counts[s.rule] += 1;
  return counts;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string format_report(const Result& result) {
  std::ostringstream out;
  out << "graffix-lint report\n";
  out << "diagnostics: " << result.diagnostics.size() << "\n";
  for (const Diagnostic& d : result.diagnostics) {
    out << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message
        << "\n";
  }
  out << "\nsuppression budget: " << result.suppressions.size()
      << " used\n";
  for (const std::string& rule : all_rules()) {
    std::size_t count = 0;
    for (const SuppressionUse& s : result.suppressions) {
      if (s.rule == rule) ++count;
    }
    out << "  " << rule << ": " << count << "\n";
    for (const SuppressionUse& s : result.suppressions) {
      if (s.rule == rule) {
        out << "    " << s.file << ":" << s.line << " -- " << s.reason << "\n";
      }
    }
  }
  return out.str();
}

std::string format_report_json(const Result& result) {
  std::string out = "{\n";
  auto item = [&](const std::string& file, int line, const std::string& rule,
                  const std::string& text, const char* text_key) {
    out += "    {\"file\": \"";
    json_escape_into(out, file);
    out += "\", \"line\": " + std::to_string(line) + ", \"rule\": \"" + rule +
           "\", \"" + text_key + "\": \"";
    json_escape_into(out, text);
    out += "\"}";
  };
  out += "  \"diagnostics\": [\n";
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    item(d.file, d.line, d.rule, d.message, "message");
    out += i + 1 < result.diagnostics.size() ? ",\n" : "\n";
  }
  out += result.diagnostics.empty() ? "  ],\n" : "  ],\n";
  out += "  \"suppressions\": [\n";
  for (std::size_t i = 0; i < result.suppressions.size(); ++i) {
    const SuppressionUse& s = result.suppressions[i];
    item(s.file, s.line, s.rule, s.reason, "reason");
    out += i + 1 < result.suppressions.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  const auto sup_counts = suppression_counts(result);
  std::map<std::string, std::size_t> diag_counts;
  for (const std::string& rule : all_rules()) diag_counts[rule] = 0;
  diag_counts["SUP"] = 0;
  for (const Diagnostic& d : result.diagnostics) diag_counts[d.rule] += 1;
  out += "  \"diagnostic_counts\": {";
  bool first = true;
  for (const auto& [rule, count] : diag_counts) {
    out += first ? "" : ", ";
    out += "\"" + rule + "\": " + std::to_string(count);
    first = false;
  }
  out += "},\n";
  out += "  \"suppression_counts\": {";
  first = true;
  for (const auto& [rule, count] : sup_counts) {
    out += first ? "" : ", ";
    out += "\"" + rule + "\": " + std::to_string(count);
    first = false;
  }
  out += "},\n";
  out += "  \"total_diagnostics\": " +
         std::to_string(result.diagnostics.size()) + ",\n";
  out += "  \"total_suppressions\": " +
         std::to_string(result.suppressions.size()) + "\n";
  out += "}\n";
  return out;
}

bool load_budget(const std::string& path, Budget& out, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read budget file " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    std::istringstream ss(t);
    std::string key;
    long value = -1;
    ss >> key >> value;
    if (key.empty() || value < 0 || ss.fail()) {
      error = path + ":" + std::to_string(lineno) +
              ": expected `<rule> <count>` or `total <count>`";
      return false;
    }
    if (key == "total") {
      out.total = value;
    } else {
      out.per_rule[key] = value;
    }
  }
  return true;
}

std::vector<std::string> budget_violations(const Result& result,
                                           const Budget& budget) {
  std::vector<std::string> violations;
  const auto counts = suppression_counts(result);
  for (const auto& [rule, used] : counts) {
    const auto it = budget.per_rule.find(rule);
    const long allowed = it == budget.per_rule.end() ? 0 : it->second;
    if (static_cast<long>(used) > allowed) {
      violations.push_back(rule + ": " + std::to_string(used) +
                           " suppressions used > " + std::to_string(allowed) +
                           " budgeted");
    }
  }
  if (budget.total >= 0 &&
      static_cast<long>(result.suppressions.size()) > budget.total) {
    violations.push_back("total: " +
                         std::to_string(result.suppressions.size()) +
                         " suppressions used > " +
                         std::to_string(budget.total) + " budgeted");
  }
  return violations;
}

}  // namespace graffix::lint
