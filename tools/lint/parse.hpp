// graffix-lint parse layer — a lightweight scope model over the token
// stream, just deep enough for the flow-aware rules (R5/R6/R7).
//
// This is not a C++ parser. It is a single-pass brace/statement walker
// that recovers the four facts the rules need:
//
//   1. the scope tree (namespace / class / enum / function / lambda /
//      block), with function scopes carrying their class qualifier
//      (`void Engine::foo()` and in-class definitions both resolve);
//   2. declarations: class members, locals, parameters, for-init and
//      range-for variables, each with best-effort textual type;
//   3. lambda capture lists ([&] / [=] / named / init captures / this);
//   4. which scopes execute under the parallel substrate: lambdas passed
//      to the parallel_* / pool_dispatch entry points, plus anything
//      they reach by calling same-TU functions or lambda variables
//      (fixpoint propagation — covers Engine helpers like eval_gate and
//      account_block that Phase A's chunk tasks call).
//
// Known, accepted limitations (heuristic, per-TU): writes through a
// local reference bound to shared state are attributed to the local
// (that laundering shape IS the sanctioned per-worker-scratch idiom);
// cross-TU reachability is invisible; unresolvable identifiers are
// skipped unless they use the `_`-suffix member convention.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace graffix::lint {

struct Decl {
  std::string name;
  std::string type;  // space-joined declaration tokens, "" when unknown
  int line = 0;
  int scope = -1;           // owning scope index
  std::size_t tok = 0;      // token index of the declared name
  bool sized_ctor = false;  // declarator had (args) / {args} construction
};

struct Capture {
  std::string name;
  bool by_ref = false;
};

struct ScopeNode {
  enum class Kind { File, Namespace, Class, Enum, Function, Lambda, Block };
  Kind kind = Kind::Block;
  std::string name;        // class/function/namespace name ("" if none)
  std::string class_name;  // Function: `Engine` for Engine::foo / in-class
  int parent = -1;
  std::size_t open_tok = 0;   // index of '{' (File: 0)
  std::size_t close_tok = 0;  // index of matching '}' (File: tokens.size())
  std::size_t intro_tok = 0;  // Lambda: index of the '[' introducer
  // Lambda only:
  bool cap_ref_default = false;
  bool cap_val_default = false;
  bool cap_this = false;
  std::vector<Capture> captures;
  std::vector<std::string> params;  // parameter names (Function too)
  bool parallel = false;  // body runs under the parallel substrate
};

struct FileModel {
  std::vector<Token> tokens;
  std::vector<ScopeNode> scopes;    // scopes[0] is the File scope
  std::vector<int> scope_of;        // token index -> innermost scope
  std::vector<std::size_t> match;   // bracket partner, tokens.size() = none
  std::vector<Decl> decls;
  std::map<std::string, std::vector<int>> decls_by_name;  // indices in decls

  /// Innermost visible declaration of `name` at token `tok`, walking the
  /// scope chain outward. Returns nullptr when unknown.
  [[nodiscard]] const Decl* resolve(const std::string& name,
                                    std::size_t tok) const;

  /// Nearest ancestor (or self) scope of the given kind; -1 when none.
  [[nodiscard]] int enclosing(std::size_t tok, ScopeNode::Kind kind) const;

  /// True when `inner` is `outer` or nested anywhere inside it.
  [[nodiscard]] bool scope_within(int inner, int outer) const;

  /// True when any ancestor-or-self scope of the token is marked parallel.
  [[nodiscard]] bool in_parallel(std::size_t tok) const;
};

[[nodiscard]] FileModel build_model(const std::vector<ScannedLine>& lines);

/// Marks scopes that execute under the parallel substrate: lambdas (or
/// lambda-variable / same-TU-function arguments) passed to any of the
/// `entry_points` calls, then a fixpoint over same-TU calls from marked
/// scopes.
void mark_parallel(FileModel& model,
                   const std::vector<std::string>& entry_points);

}  // namespace graffix::lint
