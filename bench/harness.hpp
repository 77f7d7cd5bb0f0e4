// Shared bench harness: CLI options and paper-style table rendering.
//
// Every table/figure binary parses the same flags so the whole suite can
// be driven uniformly:
//   --scale N       graph scale (nodes ~ 2^N); default 11, paper used 26
//   --seed S        master seed for generators and source sampling
//   --bc-sources K  sampled BC sources (the paper computes full BC; we
//                   sample to keep host time sane — see EXPERIMENTS.md)
//   --quick         scale 9 smoke run (used by `ctest`-adjacent checks)
//   --threads T     pin the worker pool to T threads (0 = hardware)
//   --json FILE     additionally append machine-readable JSON lines
//                   (one object per printed table) to FILE
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "metrics/table.hpp"

namespace graffix::bench {

struct BenchOptions {
  std::uint32_t scale = 11;
  std::uint64_t seed = 42;
  std::uint32_t bc_sources = 4;
  std::uint32_t threads = 0;  // 0 = hardware default
  bool verbose = false;
  std::string json_path;  // empty = no JSON output
};

[[nodiscard]] BenchOptions parse_args(int argc, char** argv);

/// Path given by --json (empty when disabled). While set, every print_*
/// table call also appends one JSON object line to the run's document,
/// so the perf trajectory can be tracked by tooling across runs.
[[nodiscard]] const std::string& json_output_path();

/// Starts a JSON document for this run (normally called by parse_args).
/// Tables are staged in `path + ".tmp"` and only moved onto `path` by
/// finalize_json_output() — registered atexit — so rerunning a bench
/// into the same file atomically REPLACES the previous document rather
/// than appending stale rows to it. Empty path disables JSON output.
void set_json_output(const std::string& path);

/// Atomically publishes the staged document to the --json path
/// (rename(2)); idempotent, and a no-op when JSON output is disabled.
/// Runs automatically at process exit; tests simulating multiple runs
/// in one process call it directly.
void finalize_json_output();

/// Applies the common options onto an experiment config.
[[nodiscard]] core::ExperimentConfig make_config(const BenchOptions& options,
                                                 Technique technique,
                                                 baselines::BaselineId baseline);

/// Prints one approximate-vs-exact table (Tables 6-14 layout): rows
/// grouped by algorithm, Speedup and Inaccuracy columns, geomean footer.
/// `paper_speedup`/`paper_inaccuracy` echo the paper's reported geomeans
/// for eyeball comparison.
void print_experiment_table(const std::string& title,
                            const std::vector<core::ExperimentRow>& rows,
                            double paper_speedup, double paper_inaccuracy_pct);

/// Prints an exact-times table (Tables 2-4 layout): one row per graph,
/// one column per algorithm. `bc_scale_factor` > 1 extrapolates the BC
/// column from the sampled-source run to the paper's full (all-sources)
/// BC — per-source cost is constant, so the extrapolation is exact up to
/// frontier-shape variance; the header marks the column.
void print_exact_table(const std::string& title,
                       const std::vector<core::ExperimentRow>& rows,
                       double bc_scale_factor = 1.0);

/// One Table 1 row (bench_table1_graphs): structural statistics plus
/// the graph's owned heap bytes (Csr::memory_bytes()), so the recorded
/// JSON ties every downstream peak-RSS receipt back to the graph size
/// it was measured against.
struct GraphSuiteRow {
  std::string name;
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t max_degree = 0;
  double mean_degree = 0.0;
  std::uint64_t pseudo_diameter = 0;
  double avg_clustering = 0.0;
  std::uint64_t memory_bytes = 0;
  std::string kind;  // "power-law" | "road network"
};

/// Prints the Table 1 suite table and emits one "graphs" JSON table
/// with a memory_bytes field per row.
void print_graphs_table(const std::string& title,
                        const std::vector<GraphSuiteRow>& rows);

/// One phase of the streaming-memory smoke (bench_memory_streaming):
/// wall seconds plus RSS and scratch-arena readings around the phase.
/// rss_* come from current_rss_bytes() (the getrusage peak never
/// decreases, so per-phase numbers must use the instantaneous reading);
/// arena_peak_bytes is the arena high-water during the phase (the bench
/// calls arena_reset_peak() at each phase start).
struct MemoryPhaseRow {
  std::string name;
  double seconds = 0.0;
  std::uint64_t rss_before_bytes = 0;
  std::uint64_t rss_after_bytes = 0;
  std::uint64_t arena_peak_bytes = 0;
};

/// Prints the per-phase memory table and emits one "memory" JSON table
/// carrying csr_memory_bytes (the final graph's owned heap bytes) next
/// to the auto-stamped peak_rss_bytes, so the CI streaming smoke cell
/// can gate peak_rss_bytes <= 2.0 * csr_memory_bytes on a single line.
void print_memory_table(const std::string& title,
                        const std::vector<MemoryPhaseRow>& rows,
                        std::uint64_t csr_memory_bytes, std::uint64_t nodes,
                        std::uint64_t edges);

/// Prints a Table 5-style preprocessing table.
void print_preprocessing_table(const std::string& title,
                               const std::vector<core::PreprocessReport>& rows);

/// Prints preprocessing wall-time scaling across thread counts: one row
/// per graph, one "T=n (s)" column per entry of `thread_counts`, and a
/// final speedup column (first count vs last count). `runs[i]` holds the
/// per-graph reports measured at `thread_counts[i]`; all runs must cover
/// the same graphs in the same order.
void print_preprocessing_scaling_table(
    const std::string& title, const std::vector<int>& thread_counts,
    const std::vector<std::vector<core::PreprocessReport>>& runs);

/// One bench_serve row: a closed-loop client fleet against a resident
/// `graffix serve` daemon. Latency percentiles are the server's own
/// admission-to-response numbers (ServerMetrics), so the row captures
/// queueing + batching effects, not just raw sweep time.
struct ServeBenchRow {
  std::uint32_t clients = 0;
  std::uint64_t queries = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t units = 0;          // execution units dispatched
  std::uint64_t batches = 0;        // multi-lane units among them
  std::uint64_t batched_lanes = 0;  // lanes across those batches
  std::uint64_t errors = 0;         // must be 0 in a healthy run
};

/// Prints the serving-throughput table and emits one "serve" JSON table
/// (qps + tail latency per client count, with batch occupancy).
void print_serve_table(const std::string& title,
                       const std::vector<ServeBenchRow>& rows,
                       std::uint64_t nodes, std::uint64_t edges);

/// Prints a Figure 7/8/9-style threshold sweep: one row per threshold with
/// geomean speedup and inaccuracy columns.
struct SweepPoint {
  double threshold = 0.0;
  double speedup = 0.0;
  double inaccuracy_pct = 0.0;
};
void print_sweep_table(const std::string& title, const char* knob_name,
                       const std::vector<SweepPoint>& points);

/// Figure 7/8/9 engine: on the rmat26 preset, runs the given algorithms
/// exactly once (Baseline-I), then for each threshold applies the
/// transform via `apply` and measures geomean speedup and inaccuracy of
/// the approximate runs. `apply(pipeline, threshold)` must call one of
/// the pipeline's apply_* methods.
[[nodiscard]] std::vector<SweepPoint> run_threshold_sweep(
    const BenchOptions& options, const std::vector<core::Algorithm>& algorithms,
    const std::vector<double>& thresholds,
    const std::function<void(Pipeline&, double)>& apply);

}  // namespace graffix::bench
