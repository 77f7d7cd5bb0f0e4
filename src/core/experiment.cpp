#include "core/experiment.hpp"

#include <algorithm>
#include <memory>

#include "algorithms/bc.hpp"
#include "util/macros.hpp"
#include "util/parallel.hpp"

namespace graffix::core {

namespace {

/// Deterministic SSSP source: the maximum-out-degree node (ties to the
/// smallest id), the same rule the renumbering uses for its first root.
NodeId pick_sssp_source(const Csr& graph) {
  NodeId best = 0;
  NodeId best_degree = 0;
  const NodeId n = graph.num_slots();
  for (NodeId v = 0; v < n; ++v) {
    if (!graph.is_hole(v) && graph.degree(v) > best_degree) {
      best = v;
      best_degree = graph.degree(v);
    }
  }
  return best;
}

double cell_inaccuracy(Algorithm alg, const RunOutput& exact,
                       const RunOutput& approx, const Pipeline& pipeline) {
  switch (alg) {
    case Algorithm::SSSP:
    case Algorithm::PR:
    case Algorithm::BC: {
      const std::vector<double> projected = pipeline.project(approx.attr);
      return metrics::attribute_error(exact.attr, projected).inaccuracy_pct;
    }
    case Algorithm::SCC:
    case Algorithm::MST:
      return metrics::scalar_inaccuracy_pct(exact.scalar, approx.scalar);
  }
  return 0.0;
}

}  // namespace

ExperimentConfig resolve_for_graph(ExperimentConfig config,
                                   GraphPreset preset) {
  if (!config.auto_thresholds) return config;
  // §5.2: connectedness 0.6 for scale-free graphs, 0.4 for road networks.
  config.coalescing.connectedness_threshold =
      preset_is_power_law(preset) ? 0.6 : 0.4;
  // §5.3: the CC threshold is tuned per graph. These are the tuned values
  // for this repo's generator suite (see EXPERIMENTS.md).
  config.latency.near_delta = 0.25;
  config.latency.edge_budget_fraction = 0.05;
  switch (preset) {
    case GraphPreset::Rmat26:
      config.latency.cc_threshold = 0.40;
      break;
    case GraphPreset::Random26:
      // ER clustering is ~ef/n: every cluster must be built by the
      // lifting step. The paper accepts its highest inaccuracies here
      // (random26 T2 rows run 11-18%).
      config.latency.cc_threshold = 0.12;
      config.latency.edge_budget_fraction = 0.05;
      break;
    case GraphPreset::LiveJournal:
      config.latency.cc_threshold = 0.35;
      break;
    case GraphPreset::UsaRoad:
      // Grids: hop-based metrics (BC levels) are very sensitive to
      // shortcut chords, so boosting is kept minimal — clusters come
      // from the natural diagonal triangles.
      config.latency.cc_threshold = 0.25;
      config.latency.near_delta = 0.15;
      config.latency.edge_budget_fraction = 0.02;
      break;
    case GraphPreset::Twitter:
      config.latency.cc_threshold = 0.40;
      break;
  }
  // §5.4: low thresholds keep the added-edge volume small. The paper's
  // guideline sets the threshold low when bucket degrees are already
  // near-uniform (roads, ER) — there the normalization has little to
  // win and every inserted edge is pure extra work.
  switch (preset) {
    case GraphPreset::Rmat26:
    case GraphPreset::LiveJournal:
    case GraphPreset::Twitter:
      config.divergence.degree_sim_threshold = 0.30;
      break;
    case GraphPreset::Random26:
    case GraphPreset::UsaRoad:
      config.divergence.degree_sim_threshold = 0.15;
      break;
  }
  return config;
}

void apply_technique(Pipeline& pipeline, const ExperimentConfig& config) {
  switch (config.technique) {
    case Technique::None:
      pipeline.reset();
      break;
    case Technique::Coalescing:
      pipeline.apply_coalescing(config.coalescing);
      break;
    case Technique::Latency:
      pipeline.apply_latency(config.latency);
      break;
    case Technique::Divergence:
      pipeline.apply_divergence(config.divergence);
      break;
    case Technique::Combined:
      pipeline.apply_combined({.coalescing = config.coalescing,
                               .latency = config.latency,
                               .divergence = config.divergence});
      break;
  }
}

std::vector<ExperimentRow> run_graph(const SuiteEntry& entry,
                                     const ExperimentConfig& base_config) {
  const ExperimentConfig config = resolve_for_graph(base_config, entry.preset);
  Pipeline pipeline(entry.graph);
  apply_technique(pipeline, config);

  const NodeId sssp_source = pick_sssp_source(entry.graph);
  const std::vector<NodeId> bc_nodes =
      sample_bc_sources(entry.graph, config.bc_sources, config.seed);
  std::vector<NodeId> bc_slots(bc_nodes.size());
  for (std::size_t i = 0; i < bc_nodes.size(); ++i) {
    bc_slots[i] = pipeline.slot_of_node(bc_nodes[i]);
  }

  // One task per (algorithm, exact|approx) cell: Pipeline::run/run_exact
  // only read the pipeline's transform artifacts, so the cells are
  // independent and run concurrently. Rows are assembled in algorithm
  // order afterwards, so the table is identical at any thread count.
  struct Cell {
    RunOutput exact;
    RunOutput approx;
  };
  std::vector<Cell> cells(config.algorithms.size());
  auto run_cell = [&](std::size_t t) {
    const Algorithm alg = config.algorithms[t / 2];
    RunConfig rc;
    rc.sim = config.sim;
    rc.baseline = config.baseline;
    rc.seed = config.seed;
    rc.confluence_every = config.confluence_every;
    if (t % 2 == 0) {
      rc.sssp_source = sssp_source;
      rc.bc_sources = bc_nodes;
      cells[t / 2].exact = pipeline.run_exact(alg, rc);
    } else {
      rc.sssp_source = pipeline.slot_of_node(sssp_source);
      rc.bc_sources = bc_slots;
      cells[t / 2].approx = pipeline.run(alg, rc);
    }
  };
  parallel_for_dynamic(std::size_t{0}, 2 * cells.size(), run_cell,
                       /*grain=*/1);

  std::vector<ExperimentRow> rows;
  rows.reserve(cells.size());
  for (std::size_t a = 0; a < cells.size(); ++a) {
    const RunOutput& exact = cells[a].exact;
    const RunOutput& approx = cells[a].approx;
    ExperimentRow row;
    row.graph = entry.name;
    row.algorithm = config.algorithms[a];
    row.exact_seconds = exact.sim_seconds;
    row.approx_seconds = approx.sim_seconds;
    row.speedup = metrics::speedup(exact.sim_seconds, approx.sim_seconds);
    row.inaccuracy_pct =
        cell_inaccuracy(config.algorithms[a], exact, approx, pipeline);
    row.exact_iterations = exact.iterations;
    row.approx_iterations = approx.iterations;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<ExperimentRow> run_table(const ExperimentConfig& config) {
  std::vector<ExperimentRow> rows;
  // Graphs stay sequential: each one's transform phase and its
  // (algorithm x exact/approx) cells are internally parallel already,
  // and one resident transformed graph at a time bounds peak memory.
  for (const SuiteEntry& entry : make_suite(config.scale, config.seed)) {
    auto graph_rows = run_graph(entry, config);
    rows.insert(rows.end(), graph_rows.begin(), graph_rows.end());
  }
  // Paper tables group rows by algorithm, then graph.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const ExperimentRow& a, const ExperimentRow& b) {
                     return static_cast<int>(a.algorithm) <
                            static_cast<int>(b.algorithm);
                   });
  return rows;
}

std::vector<ExperimentRow> run_exact_table(const ExperimentConfig& config) {
  // No transform here, so every (graph x algorithm) cell of the matrix
  // is independent: build the per-graph contexts up front, run the flat
  // cell list concurrently, and emit rows in (graph, algorithm) order.
  const std::vector<SuiteEntry> suite = make_suite(config.scale, config.seed);
  const std::size_t n_algs = config.algorithms.size();
  struct GraphCtx {
    std::unique_ptr<Pipeline> pipeline;
    NodeId sssp_source = 0;
    std::vector<NodeId> bc_nodes;
  };
  std::vector<GraphCtx> ctx(suite.size());
  for (std::size_t g = 0; g < suite.size(); ++g) {
    ctx[g].pipeline = std::make_unique<Pipeline>(suite[g].graph);
    ctx[g].sssp_source = pick_sssp_source(suite[g].graph);
    ctx[g].bc_nodes =
        sample_bc_sources(suite[g].graph, config.bc_sources, config.seed);
  }

  std::vector<RunOutput> outs(suite.size() * n_algs);
  auto run_cell = [&](std::size_t t) {
    const GraphCtx& c = ctx[t / n_algs];
    RunConfig rc;
    rc.sim = config.sim;
    rc.baseline = config.baseline;
    rc.seed = config.seed;
    rc.sssp_source = c.sssp_source;
    rc.bc_sources = c.bc_nodes;
    outs[t] = c.pipeline->run_exact(config.algorithms[t % n_algs], rc);
  };
  parallel_for_dynamic(std::size_t{0}, outs.size(), run_cell, /*grain=*/1);

  std::vector<ExperimentRow> rows;
  rows.reserve(outs.size());
  for (std::size_t t = 0; t < outs.size(); ++t) {
    ExperimentRow row;
    row.graph = suite[t / n_algs].name;
    row.algorithm = config.algorithms[t % n_algs];
    row.exact_seconds = outs[t].sim_seconds;
    row.exact_iterations = outs[t].iterations;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<PreprocessReport> run_preprocessing(const ExperimentConfig& config) {
  std::vector<PreprocessReport> reports;
  for (const SuiteEntry& entry : make_suite(config.scale, config.seed)) {
    const ExperimentConfig resolved = resolve_for_graph(config, entry.preset);
    Pipeline pipeline(entry.graph);
    apply_technique(pipeline, resolved);
    PreprocessReport report;
    report.graph = entry.name;
    report.seconds = pipeline.preprocessing_seconds();
    report.extra_space_pct = 100.0 * pipeline.extra_space_fraction();
    report.edges_added = pipeline.edges_added();
    reports.push_back(std::move(report));
  }
  return reports;
}

GeomeanSummary summarize(std::span<const ExperimentRow> rows) {
  std::vector<double> speedups, inaccuracies;
  speedups.reserve(rows.size());
  inaccuracies.reserve(rows.size());
  for (const ExperimentRow& row : rows) {
    speedups.push_back(row.speedup);
    // Geomean over percentages, floored at 0.1% so an exactly-zero cell
    // does not zero out the aggregate (the paper reports single-digit
    // geomeans over nonzero cells).
    inaccuracies.push_back(std::max(row.inaccuracy_pct, 0.1));
  }
  GeomeanSummary summary;
  summary.speedup = metrics::geomean(speedups);
  summary.inaccuracy_pct = metrics::geomean(inaccuracies);
  return summary;
}

}  // namespace graffix::core
