// Offline workloads: the paper's Tables 6-14 grid (`grid`) and one large
// preset run one call at a time (`large-run`).
//
// The untraced run goes through the library's own entry points
// (core::run_graph for the grid; Pipeline calls for large-run). The traced
// run issues the same calls in the same order with the same parallel
// dispatch, wrapping each in a span; for the grid it composes run_graph
// from its public parts and asserts the rows are identical.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algorithms/bc.hpp"
#include "algorithms/mst.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/scc.hpp"
#include "algorithms/sssp.hpp"
#include "bench.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "gen/suite.hpp"
#include "metrics/accuracy.hpp"
#include "trace.hpp"
#include "util/arena.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

using namespace graffix;
using core::Algorithm;
using core::ExperimentRow;
using core::RunOutput;

constexpr std::uint32_t kGridScale = 13;
constexpr std::uint32_t kLargeScale = 16;
constexpr std::uint32_t kBcSources = 4;
/// Set-ups timed per run, after warm_up; setup_s is their median. A grid
/// suite takes about 0.17 s to build, the large-run graph about 0.4 s.
constexpr int kSuiteRepeats = 9;
constexpr int kLargeRepeats = 5;
constexpr std::size_t kAlgs = 5;

constexpr std::array<Technique, 3> kTechniques = {
    Technique::Coalescing, Technique::Latency, Technique::Divergence};
constexpr std::array<baselines::BaselineId, 3> kBaselines = {
    baselines::BaselineId::TopologyDriven, baselines::BaselineId::TigrLike,
    baselines::BaselineId::GunrockLike};

const char* baseline_key(baselines::BaselineId id) {
  switch (id) {
    case baselines::BaselineId::TopologyDriven: return "topology";
    case baselines::BaselineId::TigrLike: return "tigr";
    case baselines::BaselineId::GunrockLike: return "gunrock";
  }
  return "?";
}

const char* technique_key(Technique t) {
  switch (t) {
    case Technique::Coalescing: return "coalescing";
    case Technique::Latency: return "latency";
    case Technique::Divergence: return "divergence";
    default: return "other";
  }
}

const char* alg_key(Algorithm alg) {
  switch (alg) {
    case Algorithm::SSSP: return "sssp";
    case Algorithm::MST: return "mst";
    case Algorithm::SCC: return "scc";
    case Algorithm::PR: return "pr";
    case Algorithm::BC: return "bc";
  }
  return "?";
}

/// The SSSP source core::run_graph uses: the maximum-out-degree node, ties
/// to the smallest id. That picker is file-local in the library, so the
/// composed path and the output check repeat the rule here.
NodeId max_degree_node(const Csr& graph) {
  NodeId best = 0;
  NodeId best_degree = 0;
  for (NodeId v = 0; v < graph.num_slots(); ++v) {
    if (!graph.is_hole(v) && graph.degree(v) > best_degree) {
      best = v;
      best_degree = graph.degree(v);
    }
  }
  return best;
}

/// The RunConfig core::run_graph gives its cells.
core::RunConfig cell_config(const core::ExperimentConfig& config, NodeId source,
                            std::span<const NodeId> bc_sources) {
  core::RunConfig rc;
  rc.sim = config.sim;
  rc.baseline = config.baseline;
  rc.seed = config.seed;
  rc.confluence_every = config.confluence_every;
  rc.sssp_source = source;
  rc.bc_sources = bc_sources;
  return rc;
}

// ---- Output check against the host references ---------------------------

/// Host reference answers for one graph (algorithms/), computed outside
/// any timed phase.
struct Reference {
  std::vector<Weight> sssp;
  std::vector<double> pr;
  std::vector<double> bc;
  double scc = 0.0;
  double mst = 0.0;
};

/// The host PageRank reference stops once an iteration moves the ranks by
/// less than this in L1; 200 iterations always get there at damping 0.85.
constexpr double kRefPrTolerance = 1e-9;

Reference host_reference(const Csr& graph, NodeId source,
                         std::span<const NodeId> bc_sources) {
  Reference ref;
  ref.sssp = sssp_dijkstra(graph, source);
  PagerankParams params;
  params.tolerance = kRefPrTolerance;
  params.max_iterations = 200;
  ref.pr = pagerank(graph, params).rank;
  ref.bc = betweenness_centrality(graph, bc_sources);
  ref.scc = static_cast<double>(scc_tarjan(graph).count);
  ref.mst = mst_kruskal(graph).total_weight;
  return ref;
}

/// Largest L1 distance Σ|out − ref| an exact PageRank run of `iterations`
/// iterations may have from the host reference. Each power iteration
/// contracts the L1 distance to the fixed point by the damping factor d,
/// so an iterate whose last step moved the ranks by δ lies within
/// d/(1−d)·δ of it. The runner (the RunConfig defaults that run_graph and
/// large-run use) stops once δ < pr_tolerance, or after
/// pr_max_iterations, when δ ≤ 2·d^(N−1) because two distributions are at
/// most 2 apart. The bound adds the reference's own distance. Unlike a
/// per-node tolerance it does not loosen as the graph grows and the mean
/// rank shrinks.
double pagerank_l1_bound(std::uint32_t iterations) {
  const core::RunConfig rc;
  const double d = rc.pr_damping;
  const double last_step = iterations < rc.pr_max_iterations
                               ? rc.pr_tolerance
                               : 2.0 * std::pow(d, static_cast<double>(iterations) - 1.0);
  return d / (1.0 - d) * (last_step + kRefPrTolerance);
}

/// Empty when an exact run agrees with the host reference; else what
/// differs. PR is compared in L1 against pagerank_l1_bound. BC, SCC and
/// MST use tests/runners_test.cpp's comparisons and tolerances. SSSP
/// keeps that test's reachability check, and every
/// distance must be at least Dijkstra's, but the test's 1% upper band is
/// not checked: the runner stops after two rounds without a discovery or
/// a relative gain beyond confluence_epsilon, which on the road preset at
/// scale 13 leaves some exact distances far above Dijkstra's (18% at
/// USA-road node 112 with seed 12).
std::string exact_mismatch(Algorithm alg, const Reference& ref, const RunOutput& out) {
  char buf[160];
  auto sized = [&](std::size_t n) {
    if (out.attr.size() == n) return true;
    std::snprintf(buf, sizeof buf, "attr size %zu != %zu", out.attr.size(), n);
    return false;
  };
  switch (alg) {
    case Algorithm::SSSP:
      if (!sized(ref.sssp.size())) return buf;
      for (std::size_t v = 0; v < ref.sssp.size(); ++v) {
        const double e = ref.sssp[v];
        const double d = out.attr[v];
        const bool ok = std::isinf(e) ? std::isinf(d)
                                      : std::isfinite(d) && d >= e - 1e-5 * (1.0 + e);
        if (!ok) {
          std::snprintf(buf, sizeof buf, "sssp node %zu: %g vs dijkstra %g", v, d, e);
          return buf;
        }
      }
      return {};
    case Algorithm::PR: {
      if (!sized(ref.pr.size())) return buf;
      double l1 = 0.0;
      for (std::size_t v = 0; v < ref.pr.size(); ++v) l1 += std::abs(out.attr[v] - ref.pr[v]);
      const double bound = pagerank_l1_bound(out.iterations);
      if (!(l1 <= bound)) {
        std::snprintf(buf, sizeof buf, "pr L1 distance %g from host exceeds %g (%u iterations)",
                      l1, bound, static_cast<unsigned>(out.iterations));
        return buf;
      }
      return {};
    }
    case Algorithm::BC:
      if (!sized(ref.bc.size())) return buf;
      for (std::size_t v = 0; v < ref.bc.size(); ++v) {
        if (!(std::abs(out.attr[v] - ref.bc[v]) <= 1e-6 * (1.0 + std::abs(ref.bc[v])))) {
          std::snprintf(buf, sizeof buf, "bc node %zu: %g vs brandes %g", v, out.attr[v],
                        ref.bc[v]);
          return buf;
        }
      }
      return {};
    case Algorithm::SCC:
      if (out.scalar != ref.scc) {
        std::snprintf(buf, sizeof buf, "scc count %g vs tarjan %g", out.scalar, ref.scc);
        return buf;
      }
      return {};
    case Algorithm::MST:
      if (!(std::abs(out.scalar - ref.mst) <= 1e-4 * std::max(1.0, ref.mst))) {
        std::snprintf(buf, sizeof buf, "mst weight %g vs kruskal %g", out.scalar, ref.mst);
        return buf;
      }
      return {};
  }
  return "unknown algorithm";
}

bool rows_equal(const ExperimentRow& a, const ExperimentRow& b) {
  return a.graph == b.graph && a.algorithm == b.algorithm &&
         a.exact_seconds == b.exact_seconds && a.approx_seconds == b.approx_seconds &&
         a.speedup == b.speedup && a.inaccuracy_pct == b.inaccuracy_pct &&
         a.exact_iterations == b.exact_iterations &&
         a.approx_iterations == b.approx_iterations;
}

/// Compares two runs' rows; each differing row is a failed cell.
void expect_same_rows(Report& report, const std::vector<ExperimentRow>& want,
                      const std::vector<ExperimentRow>& got, const char* what) {
  if (want.size() != got.size()) {
    report.fail(std::max(want.size(), got.size()), std::string(what) + ": row counts differ");
    return;
  }
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i) bad += rows_equal(want[i], got[i]) ? 0 : 1;
  if (bad > 0) report.fail(bad, std::string(what) + ": rows differ");
}

void check_rows_sane(Report& report, const std::vector<ExperimentRow>& rows) {
  std::uint64_t bad = 0;
  for (const ExperimentRow& row : rows) {
    const bool ok = std::isfinite(row.speedup) && row.speedup > 0.0 &&
                    std::isfinite(row.inaccuracy_pct) && row.inaccuracy_pct >= 0.0;
    bad += ok ? 0 : 1;
  }
  if (bad > 0) report.fail(bad, "rows with a non-finite speedup or inaccuracy");
}

// ---- Layer accounting for the traced run ---------------------------------

/// Per-layer sums gathered from result fields and call timings.
struct LayerTotals {
  double transform_s[3] = {0, 0, 0};  // by technique, kTechniques order
  double greedy_s = 0.0;
  std::uint64_t batched = 0;
  std::uint64_t serial_steps = 0;
  std::uint64_t edges_added = 0;
  double alg_busy_s[kAlgs] = {0, 0, 0, 0, 0};
  double baseline_busy_s[3] = {0, 0, 0};
  double cells_wall_s = 0.0;
  double inaccuracy_s = 0.0;
  std::uint64_t active_lanes = 0;
  std::uint64_t lane_slots = 0;
  std::uint64_t attr_transactions = 0;
  double sim_s = 0.0;
  std::uint64_t iterations = 0;
  std::size_t arena_peak = 0;

  void add_run(const RunOutput& out, Algorithm alg, std::size_t baseline, double busy) {
    alg_busy_s[static_cast<std::size_t>(alg)] += busy;
    baseline_busy_s[baseline] += busy;
    active_lanes += out.stats.active_lanes;
    lane_slots += out.stats.lane_slots;
    attr_transactions += out.stats.attr_transactions;
    sim_s += out.sim_seconds;
    iterations += out.iterations;
  }
  [[nodiscard]] double core_busy_s() const {
    double s = 0.0;
    for (const double b : alg_busy_s) s += b;
    return s;
  }
  /// Called at the end of a phase whose start reset the arena peak.
  void note_arena_phase() { arena_peak = std::max(arena_peak, arena_peak_bytes()); }
};

template <typename T, std::size_t N>
std::size_t index_of(const std::array<T, N>& values, T value) {
  return static_cast<std::size_t>(std::find(values.begin(), values.end(), value) -
                                  values.begin());
}

/// Applies `config.technique` as core::apply_technique does, but through
/// the apply_* calls whose reports carry the greedy-phase telemetry.
/// Returns the call's wall seconds.
double apply_traced(Pipeline& pipeline, const core::ExperimentConfig& config,
                    LayerTotals& totals, Tracer& tracer, int parent) {
  arena_reset_peak();
  const double t0 = now_s();
  {
    ScopedSpan span(tracer, std::string("apply_") + technique_key(config.technique),
                    std::string("transform.") + technique_key(config.technique), parent);
    switch (config.technique) {
      case Technique::Coalescing: {
        const auto& r = pipeline.apply_coalescing(config.coalescing);
        totals.greedy_s += r.greedy_seconds;
        totals.batched += r.batching.batched;
        totals.serial_steps += r.batching.serial_steps;
        break;
      }
      case Technique::Latency: {
        const auto& r = pipeline.apply_latency(config.latency);
        totals.greedy_s += r.greedy_seconds;
        totals.batched += r.batching.batched;
        totals.serial_steps += r.batching.serial_steps;
        break;
      }
      default:
        core::apply_technique(pipeline, config);
        break;
    }
  }
  const double seconds = now_s() - t0;
  totals.transform_s[index_of(kTechniques, config.technique)] += seconds;
  totals.edges_added += pipeline.edges_added();
  totals.note_arena_phase();
  return seconds;
}

/// core::run_graph's per-cell inaccuracy rule.
double cell_inaccuracy(Algorithm alg, const RunOutput& exact, const RunOutput& approx,
                       const Pipeline& pipeline) {
  switch (alg) {
    case Algorithm::SSSP:
    case Algorithm::PR:
    case Algorithm::BC:
      return metrics::attribute_error(exact.attr, pipeline.project(approx.attr))
          .inaccuracy_pct;
    case Algorithm::SCC:
    case Algorithm::MST:
      return metrics::scalar_inaccuracy_pct(exact.scalar, approx.scalar);
  }
  return 0.0;
}

ExperimentRow make_row(const std::string& graph, Algorithm alg, const RunOutput& exact,
                       const RunOutput& approx, double inaccuracy) {
  ExperimentRow row;
  row.graph = graph;
  row.algorithm = alg;
  row.exact_seconds = exact.sim_seconds;
  row.approx_seconds = approx.sim_seconds;
  row.speedup = metrics::speedup(exact.sim_seconds, approx.sim_seconds);
  row.inaccuracy_pct = inaccuracy;
  row.exact_iterations = exact.iterations;
  row.approx_iterations = approx.iterations;
  return row;
}

/// Layer metrics both offline workloads report.
void set_layer_metrics(Report& report, const LayerTotals& t,
                       std::span<const ExperimentRow> rows, double cell_parallelism) {
  report.set("transform.coalescing_s", t.transform_s[0], "s");
  report.set("transform.latency_s", t.transform_s[1], "s");
  report.set("transform.divergence_s", t.transform_s[2], "s");
  report.set("transform.greedy_s", t.greedy_s, "s");
  const double steps = static_cast<double>(t.batched + t.serial_steps);
  report.set("transform.batched_share",
             steps > 0.0 ? static_cast<double>(t.batched) / steps : 0.0, "ratio");
  report.set("transform.edges_added", static_cast<double>(t.edges_added), "count");
  for (const Algorithm alg : core::all_algorithms()) {
    report.set(std::string("core.") + alg_key(alg) + "_s",
               t.alg_busy_s[static_cast<std::size_t>(alg)], "s");
  }
  for (std::size_t b = 0; b < kBaselines.size(); ++b) {
    report.set(std::string("baselines.") + baseline_key(kBaselines[b]) + "_s",
               t.baseline_busy_s[b], "s");
  }
  report.set("core.cells_wall_s", t.cells_wall_s, "s");
  report.set("core.cell_parallelism", cell_parallelism, "ratio");
  report.set("sim.active_lanes", static_cast<double>(t.active_lanes), "count");
  report.set("sim.attr_transactions", static_cast<double>(t.attr_transactions), "count");
  report.set("sim.simd_efficiency",
             t.lane_slots > 0
                 ? static_cast<double>(t.active_lanes) / static_cast<double>(t.lane_slots)
                 : 0.0,
             "ratio");
  report.set("sim.sim_s", t.sim_s, "s");
  report.set("core.iterations", static_cast<double>(t.iterations), "count");
  report.set("sim.host_ns_per_lane",
             t.active_lanes > 0
                 ? t.core_busy_s() * 1e9 / static_cast<double>(t.active_lanes)
                 : 0.0,
             "ns");
  report.set("metrics.inaccuracy_s", t.inaccuracy_s, "s");
  report.set("util.arena_peak_mb", mib(t.arena_peak), "MiB");
  const core::GeomeanSummary summary = core::summarize(rows);
  report.set("sim.speedup", summary.speedup, "x");
  report.set("metrics.inaccuracy_pct", summary.inaccuracy_pct, "%");
}

/// Prints the traced run's blocking-path self times by layer against its
/// wall; returns the wall and the share no library layer accounts for
/// (the benchmark's own glue, layer "bench").
std::pair<double, double> print_reconciliation(const Tracer& tracer, int root,
                                               const char* what) {
  const Tracer::Span span = tracer.spans()[static_cast<std::size_t>(root)];
  const double wall = span.end - span.start;
  double attributed = 0.0;
  double glue = 0.0;
  std::printf("traced %s: self time along the blocking path, by layer\n", what);
  for (const auto& [layer, seconds] : tracer.blocking_path(root)) {
    std::printf("  %-24s %9.3f s %6.2f%%\n", layer.c_str(), seconds, 100.0 * seconds / wall);
    (layer == "bench" ? glue : attributed) += seconds;
  }
  std::printf("  %-24s %9.3f s %6.2f%% of traced wall %.3f s (unattributed %.2f%%)\n",
              "sum of library layers", attributed, 100.0 * attributed / wall, wall,
              100.0 * glue / wall);
  return {wall, glue / wall};
}

void report_trace(Report& report, const Tracer& tracer, int root, const char* what,
                  double untraced_wall, const std::string& trace_out) {
  const auto [wall, glue] = print_reconciliation(tracer, root, what);
  report.set("trace.unattributed_share", glue, "ratio");
  report.set("trace.overhead_s", wall - untraced_wall, "s");
  std::printf("tracing overhead: traced wall %.3f s - untraced wall %.3f s = %+.3f s\n",
              wall, untraced_wall, wall - untraced_wall);
  if (!trace_out.empty() && !tracer.write_chrome_trace(trace_out)) {
    std::fprintf(stderr, "could not write %s\n", trace_out.c_str());
  }
}

struct Pass {
  std::vector<ExperimentRow> rows;
  std::vector<double> call_ms;  // one per timed top-level library call
  std::vector<RunOutput> exact;  // large-run only
  double wall_s = 0.0;
};

/// Call latencies are taken per pass and the median over passes is
/// reported: the slowest call of a pass (the latency transform) moves with
/// the machine's load more than the pass totals do.
void set_offline_e2e(Report& report, double setup_s, double wall_s,
                     const std::vector<Pass>& passes) {
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (const Pass& pass : passes) {
    p50s.push_back(quantile(pass.call_ms, 0.50));
    p99s.push_back(quantile(pass.call_ms, 0.99));
  }
  report.set("setup_s", setup_s, "s");
  report.set("peak_rss_mb", mib(peak_rss_bytes()), "MiB");
  report.set("ops_per_s", static_cast<double>(report.attempted) / wall_s, "1/s");
  report.set("p50_ms", median(p50s), "ms");
  report.set("p99_ms", median(p99s), "ms");
}

// ---- grid ----------------------------------------------------------------

core::ExperimentConfig grid_config(std::uint64_t seed, Technique t,
                                   baselines::BaselineId b) {
  core::ExperimentConfig config;
  config.scale = kGridScale;
  config.seed = seed;
  config.bc_sources = kBcSources;
  config.technique = t;
  config.baseline = b;
  return config;
}

/// One grid through the library's own entry point.
Pass grid_untraced(const std::vector<SuiteEntry>& suite, std::uint64_t seed) {
  Pass pass;
  const double t0 = now_s();
  for (const Technique t : kTechniques) {
    for (const baselines::BaselineId b : kBaselines) {
      const core::ExperimentConfig config = grid_config(seed, t, b);
      for (const SuiteEntry& entry : suite) {
        const double c0 = now_s();
        const std::vector<ExperimentRow> rows = core::run_graph(entry, config);
        pass.call_ms.push_back((now_s() - c0) * 1e3);
        pass.rows.insert(pass.rows.end(), rows.begin(), rows.end());
      }
    }
  }
  pass.wall_s = now_s() - t0;
  return pass;
}

/// The same grid composed from run_graph's public parts, with spans. The
/// exact runs are checked straight against the host references.
Pass grid_traced(const std::vector<SuiteEntry>& suite, std::uint64_t seed, Tracer& tracer,
                 int root, LayerTotals& totals, const std::vector<Reference>& refs,
                 Report& report) {
  Pass pass;
  const double t0 = now_s();
  for (const Technique t : kTechniques) {
    for (const baselines::BaselineId b : kBaselines) {
      for (std::size_t g = 0; g < suite.size(); ++g) {
        const SuiteEntry& entry = suite[g];
        ScopedSpan call(tracer,
                        std::string("run_graph ") + technique_key(t) + "/" +
                            baseline_key(b) + "/" + entry.name,
                        "bench", root);
        const double c0 = now_s();
        const core::ExperimentConfig config =
            core::resolve_for_graph(grid_config(seed, t, b), entry.preset);
        std::optional<Pipeline> pipeline;
        {
          ScopedSpan span(tracer, "Pipeline", "core", call.id());
          pipeline.emplace(entry.graph);
        }
        apply_traced(*pipeline, config, totals, tracer, call.id());

        NodeId source = 0;
        std::vector<NodeId> bc_nodes;
        std::vector<NodeId> bc_slots;
        {
          ScopedSpan span(tracer, "sources", "core", call.id());
          source = max_degree_node(entry.graph);
          bc_nodes = sample_bc_sources(entry.graph, config.bc_sources, config.seed);
          for (const NodeId v : bc_nodes) bc_slots.push_back(pipeline->slot_of_node(v));
        }

        const std::vector<Algorithm>& algs = config.algorithms;
        std::vector<RunOutput> exact(algs.size());
        std::vector<RunOutput> approx(algs.size());
        std::vector<double> busy(2 * algs.size(), 0.0);
        arena_reset_peak();
        {
          ScopedSpan phase(tracer, "cells", "core.cells", call.id(), /*parallel=*/true);
          const double p0 = now_s();
          parallel_for_dynamic(
              std::size_t{0}, 2 * algs.size(),
              [&](std::size_t task) {
                const Algorithm alg = algs[task / 2];
                const bool is_exact = task % 2 == 0;
                ScopedSpan span(tracer,
                                std::string(alg_key(alg)) + (is_exact ? " exact" : " approx"),
                                "core.run", phase.id());
                const double r0 = now_s();
                if (is_exact) {
                  exact[task / 2] =
                      pipeline->run_exact(alg, cell_config(config, source, bc_nodes));
                } else {
                  approx[task / 2] = pipeline->run(
                      alg, cell_config(config, pipeline->slot_of_node(source), bc_slots));
                }
                busy[task] = now_s() - r0;
              },
              /*grain=*/1);
          totals.cells_wall_s += now_s() - p0;
        }
        totals.note_arena_phase();

        std::vector<double> inaccuracy(algs.size(), 0.0);
        {
          ScopedSpan span(tracer, "inaccuracy", "metrics", call.id());
          const double m0 = now_s();
          for (std::size_t a = 0; a < algs.size(); ++a) {
            inaccuracy[a] = cell_inaccuracy(algs[a], exact[a], approx[a], *pipeline);
          }
          totals.inaccuracy_s += now_s() - m0;
        }
        for (std::size_t a = 0; a < algs.size(); ++a) {
          totals.add_run(exact[a], algs[a], index_of(kBaselines, b), busy[2 * a]);
          totals.add_run(approx[a], algs[a], index_of(kBaselines, b), busy[2 * a + 1]);
          pass.rows.push_back(make_row(entry.name, algs[a], exact[a], approx[a], inaccuracy[a]));
          const std::string why = exact_mismatch(algs[a], refs[g], exact[a]);
          if (!why.empty()) report.fail(1, entry.name + " " + baseline_key(b) + ": " + why);
        }
        pass.call_ms.push_back((now_s() - c0) * 1e3);
      }
    }
  }
  pass.wall_s = now_s() - t0;
  return pass;
}

/// Host references, one per suite graph.
std::vector<Reference> suite_references(const std::vector<SuiteEntry>& suite,
                                        std::uint64_t seed) {
  std::vector<Reference> refs;
  for (const SuiteEntry& entry : suite) {
    const auto bc = sample_bc_sources(entry.graph, kBcSources, seed);
    refs.push_back(host_reference(entry.graph, max_degree_node(entry.graph), bc));
  }
  return refs;
}

/// Re-runs every exact cell of the grid (baseline x graph x algorithm)
/// with run_graph's configuration and compares it to the host references.
/// A mismatch fails every grid cell that shares that exact run (one per
/// technique per pass).
void check_grid_exact(const std::vector<SuiteEntry>& suite, std::uint64_t seed,
                      const std::vector<Reference>& refs, std::size_t passes,
                      Report& report) {
  const std::size_t per_baseline = suite.size() * kAlgs;
  std::vector<std::string> bad(kBaselines.size() * per_baseline);
  parallel_for_dynamic(
      std::size_t{0}, bad.size(),
      [&](std::size_t i) {
        const baselines::BaselineId b = kBaselines[i / per_baseline];
        const std::size_t g = (i / kAlgs) % suite.size();
        const auto alg = static_cast<Algorithm>(i % kAlgs);
        const SuiteEntry& entry = suite[g];
        const core::ExperimentConfig config = grid_config(seed, Technique::None, b);
        const auto bc = sample_bc_sources(entry.graph, config.bc_sources, config.seed);
        const Pipeline pipeline(entry.graph);
        const RunOutput out =
            pipeline.run_exact(alg, cell_config(config, max_degree_node(entry.graph), bc));
        const std::string why = exact_mismatch(alg, refs[g], out);
        if (!why.empty()) bad[i] = entry.name + " " + baseline_key(b) + ": " + why;
      },
      /*grain=*/1);
  for (const std::string& why : bad) {
    if (!why.empty()) report.fail(kTechniques.size() * passes, why);
  }
}

std::vector<SuiteEntry> build_suite(std::uint64_t seed, double& setup_s) {
  std::vector<double> builds;
  std::vector<SuiteEntry> suite;
  warm_up([&] { suite = make_suite(kGridScale, seed); });
  for (int r = 0; r < kSuiteRepeats; ++r) {
    suite.clear();
    const double t0 = now_s();
    suite = make_suite(kGridScale, seed);
    builds.push_back(now_s() - t0);
  }
  setup_s = median(builds);
  return suite;
}

// ---- large-run -------------------------------------------------------------

core::ExperimentConfig large_config(std::uint64_t seed, Technique t) {
  core::ExperimentConfig config;
  config.scale = kLargeScale;
  config.seed = seed;
  config.bc_sources = kBcSources;
  config.technique = t;
  return core::resolve_for_graph(config, GraphPreset::Rmat26);
}

/// One large-run sequence: 5 exact runs, then per technique one transform
/// and 5 approximate runs, one call at a time (as `graffix run`/`compare`
/// do). With `totals` set, each call gets a span and the layer totals fill.
Pass large_pass(const Csr& graph, std::uint64_t seed, Tracer& tracer, int root,
                LayerTotals* totals) {
  Pass pass;
  const double t0 = now_s();
  std::optional<Pipeline> pipeline;
  NodeId source = 0;
  std::vector<NodeId> bc_nodes;
  {
    ScopedSpan span(tracer, "Pipeline+sources", "core", root);
    pipeline.emplace(graph);
    source = max_degree_node(graph);
    bc_nodes = sample_bc_sources(graph, kBcSources, seed);
  }
  auto run_cell = [&](Algorithm alg, bool is_exact, const core::RunConfig& rc) {
    if (totals != nullptr) arena_reset_peak();
    ScopedSpan span(tracer, std::string(alg_key(alg)) + (is_exact ? " exact" : " approx"),
                    "core.run", root);
    const double c0 = now_s();
    RunOutput out = is_exact ? pipeline->run_exact(alg, rc) : pipeline->run(alg, rc);
    const double seconds = now_s() - c0;
    pass.call_ms.push_back(seconds * 1e3);
    if (totals != nullptr) {
      totals->add_run(out, alg, 0, seconds);
      totals->cells_wall_s += seconds;
      totals->note_arena_phase();
    }
    return out;
  };

  const std::vector<Algorithm> algs = core::all_algorithms();
  const core::ExperimentConfig exact_cfg = large_config(seed, Technique::None);
  for (const Algorithm alg : algs) {
    pass.exact.push_back(run_cell(alg, true, cell_config(exact_cfg, source, bc_nodes)));
  }
  for (const Technique t : kTechniques) {
    const core::ExperimentConfig config = large_config(seed, t);
    if (totals != nullptr) {
      pass.call_ms.push_back(apply_traced(*pipeline, config, *totals, tracer, root) * 1e3);
    } else {
      const double c0 = now_s();
      core::apply_technique(*pipeline, config);
      pass.call_ms.push_back((now_s() - c0) * 1e3);
    }
    std::vector<NodeId> bc_slots;
    for (const NodeId v : bc_nodes) bc_slots.push_back(pipeline->slot_of_node(v));
    for (std::size_t a = 0; a < algs.size(); ++a) {
      const RunOutput approx = run_cell(
          algs[a], false, cell_config(config, pipeline->slot_of_node(source), bc_slots));
      double inaccuracy = 0.0;
      {
        ScopedSpan span(tracer, "inaccuracy", "metrics", root);
        const double m0 = now_s();
        inaccuracy = cell_inaccuracy(algs[a], pass.exact[a], approx, *pipeline);
        if (totals != nullptr) totals->inaccuracy_s += now_s() - m0;
      }
      pass.rows.push_back(make_row(preset_name(GraphPreset::Rmat26), algs[a], pass.exact[a],
                                   approx, inaccuracy));
    }
  }
  pass.wall_s = now_s() - t0;
  return pass;
}

void check_large_exact(const Reference& ref, const Pass& pass, Report& report) {
  const std::vector<Algorithm> algs = core::all_algorithms();
  for (std::size_t a = 0; a < algs.size(); ++a) {
    const std::string why = exact_mismatch(algs[a], ref, pass.exact[a]);
    // An exact run feeds one cell per technique.
    if (!why.empty()) report.fail(kTechniques.size(), std::string("rmat26: ") + why);
  }
}

/// large-run uses one fixed rmat26 instance, as the paper's inputs are
/// fixed datasets; the run's seed draws the BC sources and seeds the
/// runners. Seeded instances moved the workload's cost by more than its
/// timing noise (cells per second from 1.31 to 1.55 over five seeds on a
/// 4-proc machine).
constexpr std::uint64_t kLargeGraphSeed = 42;

Csr build_large(double& setup_s) {
  std::vector<double> builds;
  Csr graph;
  warm_up([&] {
    graph = Csr();
    graph = make_preset_streaming(GraphPreset::Rmat26, kLargeScale, kLargeGraphSeed);
  });
  for (int r = 0; r < kLargeRepeats; ++r) {
    graph = Csr();
    const double t0 = now_s();
    graph = make_preset_streaming(GraphPreset::Rmat26, kLargeScale, kLargeGraphSeed);
    builds.push_back(now_s() - t0);
  }
  setup_s = median(builds);
  return graph;
}

/// Runs whole passes until the measuring time is used up (at least one),
/// so the paper's quantities always cover complete passes, and checks
/// that every pass reproduces the first one's rows.
template <typename RunPass>
std::vector<Pass> timed_passes(double seconds, Report& report, RunPass&& run_pass,
                               double& wall) {
  std::vector<Pass> passes;
  wall = 0.0;
  while (passes.empty() || wall < seconds) {
    passes.push_back(run_pass());
    wall += passes.back().wall_s;
  }
  report.attempted = passes.front().rows.size() * passes.size();
  check_rows_sane(report, passes.front().rows);
  for (std::size_t p = 1; p < passes.size(); ++p) {
    expect_same_rows(report, passes.front().rows, passes[p].rows, "repeated pass");
  }
  return passes;
}

void print_summary(const char* what, std::size_t passes, std::size_t cells, double wall,
                   const std::vector<ExperimentRow>& rows) {
  const core::GeomeanSummary s = core::summarize(rows);
  std::printf("%s: %zu pass(es) of %zu cells in %.3f s; sim speedup %.4fx, "
              "inaccuracy %.4f%%\n",
              what, passes, cells, wall, s.speedup, s.inaccuracy_pct);
}

}  // namespace

Report run_grid(const Options& options) {
  Report report;
  double setup_s = 0.0;
  const std::vector<SuiteEntry> suite = build_suite(options.seed, setup_s);
  const std::vector<Reference> refs = suite_references(suite, options.seed);

  if (!options.trace) {
    double wall = 0.0;
    const std::vector<Pass> passes = timed_passes(
        options.seconds, report, [&] { return grid_untraced(suite, options.seed); }, wall);
    check_grid_exact(suite, options.seed, refs, passes.size(), report);
    set_offline_e2e(report, setup_s, wall, passes);
    print_summary("grid", passes.size(), passes.front().rows.size(), wall,
                  passes.front().rows);
    return report;
  }

  // The first pass warms the arena and caches; the second is the untraced
  // reference the traced pass is compared with.
  const Pass warm = grid_untraced(suite, options.seed);
  const Pass plain = grid_untraced(suite, options.seed);
  expect_same_rows(report, warm.rows, plain.rows, "repeated grid");
  Tracer tracer(true);
  LayerTotals totals;
  Pass traced;
  int root = -1;
  {
    ScopedSpan span(tracer, "grid", "bench", -1);
    root = span.id();
    traced = grid_traced(suite, options.seed, tracer, root, totals, refs, report);
  }
  report.attempted = plain.rows.size();
  check_rows_sane(report, plain.rows);
  expect_same_rows(report, plain.rows, traced.rows, "composed grid vs core::run_graph");

  std::size_t csr_bytes = 0;
  for (const SuiteEntry& e : suite) csr_bytes += e.graph.memory_bytes();
  report.set("gen.build_s", setup_s, "s");
  report.set("graph.csr_mb", mib(csr_bytes), "MiB");
  set_layer_metrics(report, totals, plain.rows,
                    totals.cells_wall_s > 0 ? totals.core_busy_s() / totals.cells_wall_s : 0.0);
  report_trace(report, tracer, root, "grid", plain.wall_s, options.trace_out);
  return report;
}

Report run_large(const Options& options) {
  Report report;
  double setup_s = 0.0;
  const Csr graph = build_large(setup_s);
  const Reference ref = host_reference(graph, max_degree_node(graph),
                                       sample_bc_sources(graph, kBcSources, options.seed));
  Tracer off(false);

  if (!options.trace) {
    double wall = 0.0;
    const std::vector<Pass> passes = timed_passes(
        options.seconds, report,
        [&] { return large_pass(graph, options.seed, off, -1, nullptr); }, wall);
    for (const Pass& pass : passes) check_large_exact(ref, pass, report);
    set_offline_e2e(report, setup_s, wall, passes);
    print_summary("large-run", passes.size(), passes.front().rows.size(), wall,
                  passes.front().rows);
    return report;
  }

  const Pass warm = large_pass(graph, options.seed, off, -1, nullptr);
  const Pass plain = large_pass(graph, options.seed, off, -1, nullptr);
  expect_same_rows(report, warm.rows, plain.rows, "repeated large-run");
  Tracer tracer(true);
  LayerTotals totals;
  Pass traced;
  int root = -1;
  {
    ScopedSpan span(tracer, "large-run", "bench", -1);
    root = span.id();
    traced = large_pass(graph, options.seed, tracer, root, &totals);
  }
  // The same traced calls with the pool pinned to one worker: what the
  // default width buys on this non-nested path.
  Tracer narrow_tracer(true);
  LayerTotals narrow_totals;
  Pass narrow;
  {
    ScopedNumThreads one(1);
    ScopedSpan span(narrow_tracer, "large-run width 1", "bench", -1);
    narrow = large_pass(graph, options.seed, narrow_tracer, span.id(), &narrow_totals);
  }
  double wide_s = 0.0;
  double narrow_s = 0.0;
  for (const auto& [layer, s] : tracer.blocking_path(root)) wide_s += layer == "bench" ? 0 : s;
  for (const auto& [layer, s] : narrow_tracer.blocking_path(0)) {
    narrow_s += layer == "bench" ? 0 : s;
  }

  report.attempted = plain.rows.size();
  check_rows_sane(report, plain.rows);
  expect_same_rows(report, plain.rows, traced.rows, "traced vs untraced large-run");
  expect_same_rows(report, plain.rows, narrow.rows, "width 1 vs default width");
  check_large_exact(ref, traced, report);

  report.set("gen.build_s", setup_s, "s");
  report.set("graph.csr_mb", mib(graph.memory_bytes()), "MiB");
  set_layer_metrics(report, totals, plain.rows, 1.0);
  report.set("core.wide_speedup", narrow_s / wide_s, "ratio");
  std::printf("layer self time at width 1: %.3f s; at width %d: %.3f s (%.2fx)\n", narrow_s,
              effective_workers(), wide_s, narrow_s / wide_s);
  report_trace(report, tracer, root, "large-run", plain.wall_s, options.trace_out);
  return report;
}

}  // namespace perfbench
