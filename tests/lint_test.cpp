// Self-tests for graffix-lint (tools/lint): fixture snippets that must
// trigger each rule exactly once, scoping negatives (allowlists, bench
// exemption), the suppression/budget machinery, and the directory
// walker. The fixtures sit in string literals, which the lexer blanks,
// so quoting rule patterns below never fails the tree lint, which walks
// tests/ too.
#include "lint.hpp"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

namespace lint = graffix::lint;

namespace {

std::size_t count_rule(const lint::Result& result, const char* rule) {
  std::size_t count = 0;
  for (const auto& d : result.diagnostics) {
    if (d.rule == rule) ++count;
  }
  return count;
}

}  // namespace

// --- R1: omp pragmas, in any file -----------------------------------------

TEST(LintR1, RawOmpPragmaOutsideSubstrateFiresExactlyOnce) {
  const auto result = lint::lint_source("src/transform/foo.cpp", R"cpp(
void f(int* a, int n) {
#pragma omp parallel for
  for (int i = 0; i < n; ++i) a[i] = i;
}
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R1"), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 3);
}

TEST(LintR1, SubstrateAllowlistIsExempt) {
  // The substrate allowlist exempts its files from R5/R6 only: the
  // worker pool is the sole host parallel runtime, so an omp pragma
  // fires R1 even in the substrate's own files.
  for (const char* path : {"src/util/parallel.hpp", "src/util/parallel.cpp",
                           "src/util/prefix_sum.hpp"}) {
    const auto result = lint::lint_source(path, R"cpp(
void f(int* a, int n) {
#pragma omp parallel for
  for (int i = 0; i < n; ++i) a[i] = i;
}
)cpp");
    EXPECT_EQ(result.diagnostics.size(), 1u) << path;
    EXPECT_EQ(count_rule(result, "R1"), 1u) << path;
  }
}

TEST(LintR1, PragmaQuotedInStringOrCommentDoesNotFire) {
  const auto result = lint::lint_source("src/transform/foo.cpp", R"cpp(
// A comment mentioning #pragma omp parallel is fine.
const char* s = "#pragma omp parallel for";
)cpp");
  EXPECT_TRUE(result.clean());
}

// --- R2: nondeterminism sources in library code --------------------------

TEST(LintR2, RandCallFiresExactlyOnce) {
  const auto result = lint::lint_source("src/gen/foo.cpp", R"cpp(
int f() { return rand(); }
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R2"), 1u);
}

TEST(LintR2, RandomDeviceFiresExactlyOnce) {
  const auto result = lint::lint_source("src/gen/foo.cpp", R"cpp(
#include <random>
unsigned f() { return std::random_device{}(); }
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R2"), 1u);
}

TEST(LintR2, UnseededMersenneTwisterFiresExactlyOnce) {
  const auto result = lint::lint_source("src/gen/foo.cpp", R"cpp(
#include <random>
std::mt19937 generator;
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R2"), 1u);
}

TEST(LintR2, SeededMersenneTwisterIsAccepted) {
  const auto result = lint::lint_source("src/gen/foo.cpp", R"cpp(
#include <random>
std::mt19937 generator(12345u);
)cpp");
  EXPECT_TRUE(result.clean());
}

TEST(LintR2, WallClockReadFiresExactlyOnce) {
  const auto result = lint::lint_source("src/sim/foo.cpp", R"cpp(
#include <chrono>
auto f() { return std::chrono::steady_clock::now(); }
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R2"), 1u);
}

TEST(LintR2, WallClockInTimerHeaderAndBenchIsExempt) {
  const char* fixture = R"cpp(
#include <chrono>
auto f() { return std::chrono::steady_clock::now(); }
)cpp";
  EXPECT_TRUE(lint::lint_source("src/util/timer.hpp", fixture).clean());
  EXPECT_TRUE(lint::lint_source("bench/harness.cpp", fixture).clean());
}

TEST(LintR2, RangeForOverUnorderedMapFiresExactlyOnce) {
  const auto result = lint::lint_source("src/transform/foo.cpp", R"cpp(
#include <unordered_map>
int f(const std::unordered_map<int, int>& counts) {
  int total = 0;
  for (const auto& [k, v] : counts) total += v;
  return total;
}
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R2"), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 5);
}

TEST(LintR2, RangeForOverVectorIsAccepted) {
  const auto result = lint::lint_source("src/transform/foo.cpp", R"cpp(
#include <vector>
int f(const std::vector<int>& values) {
  int total = 0;
  for (int v : values) total += v;
  return total;
}
)cpp");
  EXPECT_TRUE(result.clean());
}

TEST(LintR2, LibraryScopeOnlyBenchAndToolsAreExempt) {
  const char* fixture = R"cpp(
int f() { return rand(); }
)cpp";
  EXPECT_FALSE(lint::lint_source("src/core/foo.cpp", fixture).clean());
  EXPECT_TRUE(lint::lint_source("bench/bench_foo.cpp", fixture).clean());
  EXPECT_TRUE(lint::lint_source("tools/cli_commands.cpp", fixture).clean());
}

// --- Former R3 fixtures: omp reductions ----------------------------------
// R3 (no floating-point omp reduction) is folded into R1: every omp
// pragma fails lint, so each of these inputs now fires R1 exactly once,
// whatever its reduction clause names.

TEST(LintR3, FloatingPointReductionFiresExactlyOnce) {
  // The substrate's own header gets no exemption either.
  const auto result = lint::lint_source("src/util/parallel.hpp", R"cpp(
double f(const double* a, int n) {
  double total = 0.0;
#pragma omp parallel for reduction(+ : total)
  for (int i = 0; i < n; ++i) total += a[i];
  return total;
}
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R1"), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 4);
}

TEST(LintR3, IntegerReductionIsAccepted) {
  // R3 let integer reductions through; R1 rejects the pragma itself.
  const auto result = lint::lint_source("src/util/parallel.hpp", R"cpp(
long f(const int* a, int n) {
  long total = 0;
#pragma omp parallel for reduction(+ : total)
  for (int i = 0; i < n; ++i) total += a[i];
  return total;
}
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R1"), 1u);
}

TEST(LintR3, ContinuationLinesAreJoined) {
  const auto result = lint::lint_source("src/util/parallel.hpp",
                                        "double g(int n) {\n"
                                        "  double acc = 0.0;\n"
                                        "#pragma omp parallel for \\\n"
                                        "    reduction(+ : acc)\n"
                                        "  for (int i = 0; i < n; ++i) acc += i;\n"
                                        "  return acc;\n"
                                        "}\n");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R1"), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 3);
}

TEST(LintR3, SideChannelMergeCannotUseRawFpReduction) {
  // The temptation, spelled out: merging per-record FP partials with an
  // omp reduction would reassociate the sums and break the
  // byte-identity contract. The pragma fires R1, once.
  const auto result = lint::lint_source("src/sim/engine.cpp", R"cpp(
void merge_grouped_wrong(const double* rec_sum, int n, double* total) {
  double acc = 0.0;
#pragma omp parallel for reduction(+ : acc)
  for (int i = 0; i < n; ++i) acc += rec_sum[i];
  *total = acc;
}
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R1"), 1u);
}

TEST(LintR3, SideChannelSerialMergeIdiomIsClean) {
  // The deterministic shape — a serial ascending-record fold with a
  // tag-byte early-out — carries no pragmas and needs no suppressions.
  const auto result = lint::lint_source("src/sim/engine.cpp", R"cpp(
void merge_grouped(const double* rec_sum, const unsigned char* rec_tag,
                   int n, double* total) {
  double acc = *total;
  for (int i = 0; i < n; ++i) {
    if (rec_tag[i] != 0) acc += rec_sum[i];
  }
  *total = acc;
}
)cpp");
  EXPECT_TRUE(result.clean());
}

// --- R4: std::sort in transform/sim --------------------------------------

TEST(LintR4, StdSortInTransformFiresExactlyOnce) {
  const auto result = lint::lint_source("src/transform/foo.cpp", R"cpp(
#include <algorithm>
#include <vector>
void f(std::vector<int>& v) { std::sort(v.begin(), v.end()); }
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R4"), 1u);
}

TEST(LintR4, StableSortIsAccepted) {
  const auto result = lint::lint_source("src/transform/foo.cpp", R"cpp(
#include <algorithm>
#include <vector>
void f(std::vector<int>& v) { std::stable_sort(v.begin(), v.end()); }
)cpp");
  EXPECT_TRUE(result.clean());
}

TEST(LintR4, SortOutsideTransformAndSimIsAccepted) {
  const char* fixture = R"cpp(
#include <algorithm>
#include <vector>
void f(std::vector<int>& v) { std::sort(v.begin(), v.end()); }
)cpp";
  EXPECT_TRUE(lint::lint_source("src/algorithms/foo.cpp", fixture).clean());
  EXPECT_TRUE(lint::lint_source("src/graph/foo.cpp", fixture).clean());
}

// --- Suppressions --------------------------------------------------------

TEST(LintSuppression, SameLineAllowSuppressesAndIsCounted) {
  const auto result = lint::lint_source("src/transform/foo.cpp", R"cpp(
#include <algorithm>
#include <vector>
void f(std::vector<int>& v) { std::sort(v.begin(), v.end()); }  // graffix-lint: allow(R4) ints sort totally
)cpp");
  EXPECT_TRUE(result.clean());
  ASSERT_EQ(result.suppressions.size(), 1u);
  EXPECT_EQ(result.suppressions[0].rule, "R4");
  EXPECT_EQ(result.suppressions[0].reason, "ints sort totally");
}

TEST(LintSuppression, PreviousLineAllowSuppresses) {
  const auto result = lint::lint_source("src/transform/foo.cpp", R"cpp(
#include <algorithm>
#include <vector>
void f(std::vector<int>& v) {
  // graffix-lint: allow(R4) ints sort totally
  std::sort(v.begin(), v.end());
}
)cpp");
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.suppressions.size(), 1u);
}

TEST(LintSuppression, WrongRuleDoesNotSuppress) {
  const auto result = lint::lint_source("src/transform/foo.cpp", R"cpp(
#include <algorithm>
#include <vector>
void f(std::vector<int>& v) {
  // graffix-lint: allow(R1) wrong rule id
  std::sort(v.begin(), v.end());
}
)cpp");
  // The R4 diagnostic survives and the unmatched allow(R1) is itself
  // flagged as unused.
  EXPECT_EQ(count_rule(result, "R4"), 1u);
  EXPECT_EQ(count_rule(result, "SUP"), 1u);
}

TEST(LintSuppression, MissingReasonIsADiagnostic) {
  const auto result = lint::lint_source("src/transform/foo.cpp", R"cpp(
#include <algorithm>
#include <vector>
void f(std::vector<int>& v) {
  // graffix-lint: allow(R4)
  std::sort(v.begin(), v.end());
}
)cpp");
  // Reasonless suppressions never apply, so both the SUP diagnostic and
  // the original R4 diagnostic are reported.
  EXPECT_EQ(count_rule(result, "SUP"), 1u);
  EXPECT_EQ(count_rule(result, "R4"), 1u);
}

TEST(LintSuppression, UnusedSuppressionIsADiagnostic) {
  const auto result = lint::lint_source("src/transform/foo.cpp", R"cpp(
// graffix-lint: allow(R4) nothing to suppress here
int f() { return 1; }
)cpp");
  EXPECT_EQ(count_rule(result, "SUP"), 1u);
}

TEST(LintSuppression, DirectiveMustStartTheComment) {
  // Mentioning the directive mid-comment (e.g. when documenting it) must
  // not register a suppression.
  const auto result = lint::lint_source("src/transform/foo.cpp", R"cpp(
// The syntax is: graffix-lint: allow(R4) <reason>, on the flagged line.
int f() { return 1; }
)cpp");
  EXPECT_TRUE(result.clean());
}

// --- Directory walking + report ------------------------------------------

TEST(LintPaths, WalksDirectoriesAndAggregates) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "graffix_lint_walk" / "src";
  fs::create_directories(root / "transform");
  {
    std::ofstream out(root / "transform" / "bad.cpp");
    out << "#pragma omp parallel for\n";
  }
  {
    std::ofstream out(root / "transform" / "good.cpp");
    out << "int f() { return 1; }\n";
  }
  {
    std::ofstream out(root / "transform" / "notes.txt");
    out << "#pragma omp parallel for (ignored: not a source file)\n";
  }
  const auto result = lint::lint_paths({(root.parent_path()).string()});
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R1"), 1u);
  fs::remove_all(root.parent_path());
}

TEST(LintPaths, MissingPathIsReported) {
  const auto result =
      lint::lint_paths({"/nonexistent/graffix/lint/path"});
  EXPECT_EQ(count_rule(result, "SUP"), 1u);
}

TEST(LintReport, BudgetListsSuppressionsPerRule) {
  const auto result = lint::lint_source("src/transform/foo.cpp", R"cpp(
#include <algorithm>
#include <vector>
void f(std::vector<int>& v) { std::sort(v.begin(), v.end()); }  // graffix-lint: allow(R4) ints sort totally
)cpp");
  const std::string report = lint::format_report(result);
  EXPECT_NE(report.find("diagnostics: 0"), std::string::npos);
  EXPECT_NE(report.find("suppression budget: 1 used"), std::string::npos);
  EXPECT_NE(report.find("R4: 1"), std::string::npos);
  EXPECT_NE(report.find("ints sort totally"), std::string::npos);
}

// --- R1 continuation (lexer phase-2 splicing) -----------------------------

TEST(LintR1, BackslashContinuedPragmaFires) {
  // Pre-lexer versions of the linter matched line-by-line, so a
  // directive split with a backslash continuation escaped R1 entirely.
  // Phase-2 splicing reassembles it before matching.
  const auto result = lint::lint_source("src/transform/foo.cpp",
                                        "void f(int* a, int n) {\n"
                                        "#pragma omp \\\n"
                                        "    parallel for\n"
                                        "  for (int i = 0; i < n; ++i) a[i] = i;\n"
                                        "}\n");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R1"), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 2);
}

// --- R5: parallel-capture safety ------------------------------------------

TEST(LintR5, LaneTableMemberWriteFiresExactlyOnce) {
  // The seeded reconstruction of the pre-PR-6 bug: lane replay tables
  // lived as Engine members and were scattered into from concurrent
  // replay tasks. The loop counter `l` starts from a constant, so the
  // disjoint-slot taint sanction does NOT apply — exactly the write the
  // PR 6 fix moved into per-worker SweepScratch must fire.
  const auto result = lint::lint_source("src/sim/engine.hpp", R"cpp(
class Engine {
 public:
  void replay_grouped(int n_replay) {
    parallel_tasks(n_replay, [&](int rc) {
      for (int l = 0; l < lanes_; ++l) {
        lane_dst_[l] = rc;
      }
    });
  }

 private:
  int lanes_ = 0;
  std::vector<int> lane_dst_;
};
)cpp");
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R5"), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 7);
}

TEST(LintR5, SweepScratchLocalRefIsTheSanctionedFix) {
  // The shape PR 6 actually shipped: bind the per-worker SweepScratch
  // slot to a local reference and write through that. The channel type
  // sanctions the writes; zero diagnostics, zero suppressions needed.
  const auto result = lint::lint_source("src/sim/engine.hpp", R"cpp(
class Engine {
 public:
  void replay_grouped(int n_replay) {
    parallel_tasks(n_replay, [&](int rc) {
      SweepScratch& sc = scratch_[rc];
      for (int l = 0; l < lanes_; ++l) {
        sc.lane_dst[l] = rc;
      }
    });
  }

 private:
  int lanes_ = 0;
  std::vector<SweepScratch> scratch_;
};
)cpp");
  EXPECT_TRUE(result.clean());
  EXPECT_TRUE(result.suppressions.empty());
}

TEST(LintR5, MemberSlotIndexedByTaskParamIsClean) {
  // The disjoint-slot contract: out_[rc] with rc the task's own lambda
  // parameter cannot collide across tasks.
  const auto result = lint::lint_source("src/sim/engine.hpp", R"cpp(
class Engine {
 public:
  void replay_pass(int n) {
    parallel_tasks(n, [&](int rc) { out_[rc] = rc; });
  }

 private:
  std::vector<int> out_;
};
)cpp");
  EXPECT_TRUE(result.clean());
}

TEST(LintR5, RowCursorTaintSanctionsDerivedIndex) {
  // `pos` derives from the task parameter through its initializer, so
  // `targets[pos]` is the row-cursor scatter idiom (disjoint rows).
  const auto result = lint::lint_source("src/graph/foo.cpp", R"cpp(
void scatter(std::vector<int>& offsets, std::vector<int>& targets, int n) {
  parallel_for(0, n, [&](int u) {
    int pos = offsets[u];
    targets[pos] = u;
  });
}
)cpp");
  EXPECT_TRUE(result.clean());
}

TEST(LintR5, RangeForElementDoesNotInheritTaint) {
  // Distinct tasks' neighbor ranges can contain the same vertex, so a
  // range-for element subscript is NOT a disjoint slot — the write must
  // fire even though the range expression derives from the task param.
  const auto result = lint::lint_source("src/algorithms/foo.cpp", R"cpp(
void levels(std::vector<std::vector<int>>& nbrs, std::vector<int>& level,
            int n) {
  parallel_for(0, n, [&](int u) {
    for (int v : nbrs[u]) {
      level[v] = u;
    }
  });
}
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R5"), 1u);
}

TEST(LintR5, ByRefCaptureAcrossBoundaryFires) {
  const auto result = lint::lint_source("src/core/foo.cpp", R"cpp(
int sum(const std::vector<int>& items) {
  int total = 0;
  parallel_for(std::size_t{0}, items.size(), [&](std::size_t i) {
    total += items[i];
  });
  return total;
}
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R5"), 1u);
}

TEST(LintR5, AtomicAccumulatorIsClean) {
  const auto result = lint::lint_source("src/core/foo.cpp", R"cpp(
int sum(const std::vector<int>& items) {
  std::atomic<int> total{0};
  parallel_for(std::size_t{0}, items.size(), [&](std::size_t i) {
    total += items[i];
  });
  return total.load();
}
)cpp");
  EXPECT_TRUE(result.clean());
}

TEST(LintR5, HeldLockSanctionsTheWrite) {
  const auto result = lint::lint_source("src/core/foo.cpp", R"cpp(
int sum(int n) {
  std::mutex mu;
  int total = 0;
  parallel_for(0, n, [&](int i) {
    std::scoped_lock lk(mu);
    total += i;
  });
  return total;
}
)cpp");
  EXPECT_TRUE(result.clean());
}

TEST(LintR5, ByValueCaptureWritesHitACopy) {
  const auto result = lint::lint_source("src/core/foo.cpp", R"cpp(
void f(int n) {
  int x = 0;
  parallel_for(0, n, [x](int i) mutable { x += i; });
}
)cpp");
  EXPECT_TRUE(result.clean());
}

TEST(LintR5, GlobalWriteFromParallelRegionFires) {
  const auto result = lint::lint_source("src/core/foo.cpp", R"cpp(
int g_counter = 0;
void f(int n) {
  parallel_for(0, n, [&](int i) { g_counter += i; });
}
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R5"), 1u);
}

TEST(LintR5, PropagatesThroughSameTuCallees) {
  // The member write sits in a helper the parallel lambda calls, not in
  // the lambda itself. The fixpoint marks the helper and the write still
  // fires.
  const auto result = lint::lint_source("src/sim/foo.cpp", R"cpp(
struct Widget {
  void step(int i) { count_ = i; }
  void run(int n) {
    parallel_for(0, n, [&](int i) { step(i); });
  }
  int count_ = 0;
};
)cpp");
  EXPECT_EQ(count_rule(result, "R5"), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 3);
}

TEST(LintR5, PropagatesIntoCalleeWithBracedDefaultArgument) {
  // A braced default argument in the parameter list (`Options opts = {}`)
  // must not hide the function scope: the fixpoint still follows the
  // call into step() and the member write fires.
  const auto result = lint::lint_source("src/sim/foo.cpp", R"cpp(
struct Widget {
  void step(int i, Options opts = {}) {
    count_ = i;
  }
  void run(int n) {
    parallel_for(0, n, [&](int i) { step(i); });
  }
  int count_ = 0;
};
)cpp");
  EXPECT_EQ(count_rule(result, "R5"), 1u);
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 4);
}

TEST(LintR5, AllowAnnotationSuppressesWithReason) {
  const auto result = lint::lint_source("src/sim/engine.hpp", R"cpp(
class Engine {
 public:
  void replay_grouped(int n_replay) {
    parallel_tasks(n_replay, [&](int rc) {
      // graffix-lint: allow(R5) record ranges are disjoint by construction
      lane_dst_[0] = rc;
    });
  }

 private:
  std::vector<int> lane_dst_;
};
)cpp");
  EXPECT_TRUE(result.clean());
  ASSERT_EQ(result.suppressions.size(), 1u);
  EXPECT_EQ(result.suppressions[0].rule, "R5");
}

// --- R6: hot-path allocation ----------------------------------------------

TEST(LintR6, NewInParallelBodyFires) {
  const auto result = lint::lint_source("src/core/foo.cpp", R"cpp(
void f(int n) {
  parallel_for(0, n, [&](int i) {
    int* p = new int[8];
    use(p, i);
    delete[] p;
  });
}
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R6"), 1u);
}

TEST(LintR6, MakeUniqueInParallelBodyFires) {
  const auto result = lint::lint_source("src/core/foo.cpp", R"cpp(
void f(int n) {
  parallel_for(0, n, [&](int i) {
    auto p = std::make_unique<int>(i);
    use(*p);
  });
}
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R6"), 1u);
}

TEST(LintR6, VectorGrowthInParallelBodyFires) {
  const auto result = lint::lint_source("src/core/foo.cpp", R"cpp(
void f(int n) {
  parallel_for(0, n, [&](int i) {
    std::vector<int> tmp;
    tmp.push_back(i);
    use(tmp);
  });
}
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R6"), 1u);
}

TEST(LintR6, SizedVectorInEngineSweepMethodFires) {
  // Engine sweep*/replay* methods are hot even where they are serial:
  // a sized std::vector there allocates on every sweep.
  const auto result = lint::lint_source("src/sim/engine.cpp", R"cpp(
void Engine::sweep_blocks(int n) {
  std::vector<int> tmp(n);
  use(tmp);
}
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R6"), 1u);
}

TEST(LintR6, SizedVectorInColdMethodIsClean) {
  const auto result = lint::lint_source("src/sim/engine.cpp", R"cpp(
void Engine::load_topology(int n) {
  std::vector<int> tmp(n);
  use(tmp);
}
)cpp");
  EXPECT_TRUE(result.clean());
}

TEST(LintR6, ArenaVectorIsTheSanctionedAllocator) {
  const auto result = lint::lint_source("src/core/foo.cpp", R"cpp(
void f(int n) {
  parallel_for(0, n, [&](int i) {
    ArenaVector<int> tmp;
    tmp.push_back(i);
    use(tmp);
  });
}
)cpp");
  EXPECT_TRUE(result.clean());
}

TEST(LintR6, GrowthThroughReferenceIsChargedToTheOwner) {
  // Each task appends to a segment the caller owns; growing it through
  // a reference is charged to the owner, not to the parallel body.
  const auto result = lint::lint_source("src/core/foo.cpp", R"cpp(
void append_to(std::vector<int>& seg, int x) { seg.push_back(x); }
void f(const std::vector<int>& in, std::vector<std::vector<int>>& segs) {
  parallel_tasks(segs.size(), [&](std::size_t t) {
    std::vector<int>& seg = segs[t];
    seg.push_back(in[t]);
    append_to(seg, in[t]);
  });
}
)cpp");
  EXPECT_TRUE(result.clean());
}

TEST(LintR6, SlotOwnedGrowthByTaskIndexIsClean) {
  // block_lists[b].push_back where b is the task index builds disjoint
  // slot-owned output, not per-execution scratch.
  const auto result = lint::lint_source("src/core/foo.cpp", R"cpp(
void bucket(std::vector<std::vector<int>>& lists, int n) {
  parallel_for(0, n, [&](int b) { lists[b].push_back(b); });
}
)cpp");
  EXPECT_TRUE(result.clean());
}

// --- R7: serve protocol hygiene -------------------------------------------

TEST(LintR7, NonLiteralJsonKeyFires) {
  const auto result = lint::lint_source("src/serve/handlers.cpp", R"cpp(
void emit(JsonWriter& w, const std::string& key) {
  w.field_u64(key, 1);
}
)cpp");
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(count_rule(result, "R7"), 1u);
}

TEST(LintR7, LiteralKeysAreClean) {
  const auto result = lint::lint_source("src/serve/handlers.cpp", R"cpp(
void emit(JsonWriter& w) {
  w.open_object();
  w.field_u64("count", 1);
  w.open_array("items");
  w.field_string("name", "x");
}
)cpp");
  EXPECT_TRUE(result.clean());
}

TEST(LintR7, RawWriteOutsideTransportHomeFires) {
  const char* fixture = R"cpp(
void f(int fd) { printf("%d", fd); }
)cpp";
  // Everywhere in serve/ except FdTransport's own translation unit.
  EXPECT_EQ(count_rule(lint::lint_source("src/serve/handlers.cpp", fixture),
                       "R7"),
            1u);
  EXPECT_TRUE(lint::lint_source("src/serve/session.cpp", fixture).clean());
  // And outside serve/ the rule does not apply at all.
  EXPECT_TRUE(lint::lint_source("src/core/foo.cpp", fixture).clean());
}

TEST(LintR7, StderrDiagnosticsAreAllowed) {
  const auto result = lint::lint_source("src/serve/handlers.cpp", R"cpp(
void warn(const char* msg) { fprintf(stderr, "%s", msg); }
)cpp");
  EXPECT_TRUE(result.clean());
}

TEST(LintR7, CoutIsTheStdioTransport) {
  const auto result = lint::lint_source("src/serve/handlers.cpp", R"cpp(
void f(int x) { std::cout << x; }
)cpp");
  EXPECT_EQ(count_rule(result, "R7"), 1u);
}

TEST(LintR7, DeadErrorCodeEnumeratorFires) {
  const auto result = lint::lint_source("src/serve/protocol.hpp", R"cpp(
enum class ErrorCode { Ok = 0, Internal = 1 };
inline int code_of(ErrorCode c) {
  if (c == ErrorCode::Ok) return 0;
  return 1;
}
)cpp");
  // `Internal` is declared but never emitted anywhere in the linted set.
  ASSERT_EQ(count_rule(result, "R7"), 1u);
  EXPECT_NE(result.diagnostics[0].message.find("Internal"), std::string::npos);
}

TEST(LintR7, CaseLabelIsNotAnEmitSite) {
  // Dispatching ON a code is not emitting it: an enumerator whose only
  // appearance is a case label is still dead protocol vocabulary.
  const auto result = lint::lint_source("src/serve/protocol.hpp", R"cpp(
enum class ErrorCode { Ok = 0 };
inline void handle(ErrorCode c) {
  switch (c) {
    case ErrorCode::Ok:
      break;
  }
}
)cpp");
  EXPECT_EQ(count_rule(result, "R7"), 1u);
}

TEST(LintR7, ErrorCodeCoverageIsPooledAcrossFiles) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "graffix_lint_r7";
  fs::create_directories(root / "src" / "serve");
  {
    std::ofstream out(root / "src" / "serve" / "codes.hpp");
    out << "enum class ErrorCode { Ok = 0, Bad = 1 };\n";
  }
  {
    std::ofstream out(root / "src" / "serve" / "emit.cpp");
    out << "void emit_ok() { respond(ErrorCode::Ok); }\n";
  }
  const auto result = lint::lint_paths({root.string()});
  // `Ok` is covered by the emit in the OTHER file; only `Bad` is dead,
  // and the diagnostic points at the declaring header.
  ASSERT_EQ(count_rule(result, "R7"), 1u);
  EXPECT_NE(result.diagnostics[0].message.find("Bad"), std::string::npos);
  EXPECT_NE(result.diagnostics[0].file.find("codes.hpp"), std::string::npos);
  fs::remove_all(root);
}

// --- Relaxed profile for tests/ and examples/ -----------------------------

TEST(LintProfile, TestsAreExemptFromR2ButNotFromR5) {
  // rand() is fine in a test (R2 is src/-scoped)...
  EXPECT_TRUE(lint::lint_source("tests/foo_test.cpp",
                                "int f() { return rand(); }\n")
                  .clean());
  // ...but a racy by-ref accumulator in a test is still a racy by-ref
  // accumulator: the parallel rules follow the code everywhere.
  const auto result = lint::lint_source("tests/foo_test.cpp", R"cpp(
int sum(int n) {
  int total = 0;
  parallel_for(0, n, [&](int i) { total += i; });
  return total;
}
)cpp");
  EXPECT_EQ(count_rule(result, "R5"), 1u);
}

// --- JSON report ----------------------------------------------------------

TEST(LintReportJson, EmitsDiagnosticsSuppressionsAndCounts) {
  const auto result = lint::lint_source("src/transform/foo.cpp", R"cpp(
#include <algorithm>
#include <vector>
void f(std::vector<int>& v) { std::sort(v.begin(), v.end()); }
void g(std::vector<int>& v) { std::sort(v.begin(), v.end()); }  // graffix-lint: allow(R4) ints sort totally
)cpp");
  ASSERT_EQ(result.diagnostics.size(), 1u);
  ASSERT_EQ(result.suppressions.size(), 1u);
  const std::string json = lint::format_report_json(result);
  EXPECT_NE(json.find("\"diagnostics\": ["), std::string::npos);
  EXPECT_NE(json.find("\"suppressions\": ["), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"R4\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"ints sort totally\""), std::string::npos);
  EXPECT_NE(json.find("\"total_diagnostics\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"total_suppressions\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostic_counts\""), std::string::npos);
  EXPECT_NE(json.find("\"suppression_counts\""), std::string::npos);
}

TEST(LintReportJson, EscapesReasonText) {
  const auto result = lint::lint_source("src/transform/foo.cpp", R"cpp(
#include <algorithm>
#include <vector>
void f(std::vector<int>& v) { std::sort(v.begin(), v.end()); }  // graffix-lint: allow(R4) keys are "quoted" literals
)cpp");
  const std::string json = lint::format_report_json(result);
  EXPECT_NE(json.find("keys are \\\"quoted\\\" literals"), std::string::npos);
}

// --- Budget file ----------------------------------------------------------

namespace {

std::string write_temp_budget(const char* name, const char* content) {
  namespace fs = std::filesystem;
  const fs::path p = fs::path(::testing::TempDir()) / name;
  std::ofstream out(p);
  out << content;
  return p.string();
}

lint::Result result_with_suppressions(std::size_t n) {
  lint::Result r;
  for (std::size_t i = 0; i < n; ++i) {
    r.suppressions.push_back({"src/x.cpp", static_cast<int>(i + 1), "R4",
                              "reason"});
  }
  return r;
}

}  // namespace

TEST(LintBudget, LoadParsesRulesAndTotal) {
  const std::string path = write_temp_budget("budget_ok",
                                             "# comment\n"
                                             "R4 2\n"
                                             "R6 21\n"
                                             "\n"
                                             "total 36\n");
  lint::Budget budget;
  std::string error;
  ASSERT_TRUE(lint::load_budget(path, budget, error)) << error;
  EXPECT_EQ(budget.per_rule.at("R4"), 2);
  EXPECT_EQ(budget.per_rule.at("R6"), 21);
  EXPECT_EQ(budget.total, 36);
}

TEST(LintBudget, MalformedLineIsAnError) {
  const std::string path = write_temp_budget("budget_bad", "R4 two\n");
  lint::Budget budget;
  std::string error;
  EXPECT_FALSE(lint::load_budget(path, budget, error));
  EXPECT_FALSE(error.empty());
}

TEST(LintBudget, MissingFileIsAnError) {
  lint::Budget budget;
  std::string error;
  EXPECT_FALSE(
      lint::load_budget("/nonexistent/graffix/lint_budget", budget, error));
  EXPECT_FALSE(error.empty());
}

TEST(LintBudget, PerRuleOverrunIsReported) {
  lint::Budget budget;
  budget.per_rule["R4"] = 1;
  const auto violations =
      lint::budget_violations(result_with_suppressions(2), budget);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("R4"), std::string::npos);
}

TEST(LintBudget, UnbudgetedRuleCountsAsZero) {
  lint::Budget budget;  // no R4 line at all
  const auto violations =
      lint::budget_violations(result_with_suppressions(1), budget);
  ASSERT_EQ(violations.size(), 1u);
}

TEST(LintBudget, TotalOverrunIsReported) {
  lint::Budget budget;
  budget.per_rule["R4"] = 5;
  budget.total = 1;
  const auto violations =
      lint::budget_violations(result_with_suppressions(2), budget);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("total"), std::string::npos);
}

TEST(LintBudget, WithinBudgetIsQuiet) {
  lint::Budget budget;
  budget.per_rule["R4"] = 2;
  budget.total = 2;
  EXPECT_TRUE(
      lint::budget_violations(result_with_suppressions(2), budget).empty());
}
