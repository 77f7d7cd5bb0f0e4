// graffix-lint — the repo's determinism-policy analyzer.
//
// A lightweight two-layer (lexer + heuristic scope parser, no libclang)
// static-analysis pass that machine-checks the DESIGN.md §7 parallelism
// & determinism policy over src/, bench/, tools/, tests/, and examples/.
// The checked rules (see DESIGN.md §8 for the authoritative table and
// suppression etiquette):
//
//   R1  No raw `#pragma omp` outside the substrate allowlist
//       (util/parallel.hpp, util/prefix_sum.hpp). All teams must go
//       through the effective_workers()-clamped wrappers. Backslash-
//       continued directives are spliced before matching.
//   R2  No nondeterminism sources in library code (src/): rand()-family
//       calls, std::random_device, unseeded std::mt19937, wall-clock
//       reads outside util/timer.hpp, and range-for over
//       std::unordered_{map,set} (iteration order is
//       implementation-defined, so it may never feed an output).
//   R3  No floating-point `omp reduction` (any file, including the
//       substrate): FP addition is not associative, so a team-order
//       reduction over float/double is nondeterministic.
//   R4  `std::sort` in src/transform/ and src/sim/ must be certified:
//       tie order feeds the CSR layout, so every comparator must be a
//       total order on element values (or the call migrated to
//       std::stable_sort).
//   R5  Parallel-capture safety: inside a lambda handed to the parallel
//       substrate (parallel_for[_dynamic|_each_dynamic|_dynamic_any],
//       parallel_tasks, parallel_append, pool_dispatch — plus anything
//       those lambdas reach through same-TU calls, which covers the
//       Engine helpers Phase A calls from its chunk tasks), a write to a
//       class member, a by-reference capture, or a global is flagged
//       unless it goes through a sanctioned channel: per-worker
//       SweepScratch, std::atomic, a held lock
//       (scoped_lock/lock_guard/unique_lock in scope), or a slot
//       subscripted by the task's own lambda parameter (the disjoint-
//       slot contract). This is the PR 6 lane_dst_/lane_active_ bug
//       class, caught before TSan needs a lucky interleaving.
//   R6  Hot-path allocation: `new`, make_unique/make_shared, growth of
//       a std::vector, and sized std::vector construction inside R5's
//       parallel regions or inside Engine sweep*/replay*/
//       functional_block/account_block methods must use the arena
//       (ArenaBuffer/ArenaVector) instead — the PR 7 peak-memory
//       discipline.
//   R7  Serve protocol hygiene (src/serve/ only): JsonWriter keys must
//       be string literals at the call site (data-dependent key order
//       breaks byte-stable responses), raw transport writes
//       (write/printf/puts/fwrite/std::cout; fprintf not aimed at
//       stderr) are FdTransport's privilege (serve/session.cpp), and
//       every ErrorCode enumerator must have an emit site somewhere in
//       the linted set (dead protocol vocabulary rots).
//
// Suppressions: `// graffix-lint: allow(Rn) <reason>` on the flagged
// line or the line directly above it. A missing reason and an unused
// suppression are themselves diagnostics (rule SUP), so annotations
// cannot rot silently. Every used suppression is counted into a
// per-rule budget; the CLI can enforce a checked-in budget file.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace graffix::lint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;     // "R1".."R7", or "SUP" for suppression misuse
  std::string message;
};

/// One used (i.e. diagnostic-matching) inline suppression.
struct SuppressionUse {
  std::string file;
  int line = 0;
  std::string rule;
  std::string reason;
};

struct Result {
  std::vector<Diagnostic> diagnostics;   // sorted by (file, line, rule)
  std::vector<SuppressionUse> suppressions;

  [[nodiscard]] bool clean() const { return diagnostics.empty(); }
};

/// Lints one translation unit. `path_label` determines rule scoping
/// (allowlists, src/-only rules) and is echoed into diagnostics; it can
/// be a real path or a fixture label like "src/transform/foo.cpp".
/// Cross-file facts (R7 ErrorCode coverage) are evaluated over this one
/// unit alone.
[[nodiscard]] Result lint_source(std::string path_label,
                                 std::string_view content);

/// Lints every .hpp/.cpp/.h/.cc file under the given files/directories
/// (recursively; paths are sorted so output order is deterministic).
/// Cross-file facts are pooled across the whole set before the R7
/// coverage check. Unreadable paths produce a SUP diagnostic rather
/// than being skipped silently.
[[nodiscard]] Result lint_paths(const std::vector<std::string>& paths);

/// Human-readable report: diagnostics, then the suppression budget
/// (per-rule counts with file:line and reasons).
[[nodiscard]] std::string format_report(const Result& result);

/// Machine-readable report (lint_report.json): diagnostics,
/// suppressions with reasons, and per-rule counts. Deterministic field
/// and element order.
[[nodiscard]] std::string format_report_json(const Result& result);

/// The checked-in suppression budget (tools/lint/lint_budget): one
/// `<rule> <count>` line per rule plus a `total <count>` line;
/// '#' comments and blank lines ignored.
struct Budget {
  std::map<std::string, long> per_rule;
  long total = -1;  // -1: no total line (unlimited)
};

/// Parses a budget file. Returns false (with `error` set) on a missing
/// file or a malformed line.
[[nodiscard]] bool load_budget(const std::string& path, Budget& out,
                               std::string& error);

/// Every way `result`'s used suppressions exceed the budget, as
/// human-readable strings (empty = within budget). A rule with used
/// suppressions but no budget line counts as budget 0.
[[nodiscard]] std::vector<std::string> budget_violations(
    const Result& result, const Budget& budget);

}  // namespace graffix::lint
