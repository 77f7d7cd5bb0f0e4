// Engine micro-benchmark + determinism gate.
//
// Measures wall-clock time of the simulation hot paths — raw engine
// sweeps, SSSP (topology- and frontier-driven), PageRank, and the
// source-parallel BC loop — at 1/2/4/8 worker threads, and verifies that
// KernelStats, sim_seconds, and the output attributes are bit-identical
// across all thread counts (the DESIGN.md §7 contract). Exits non-zero
// on any mismatch, so this binary doubles as a runtime determinism
// check.
//
// The matrix runs at two scales: the base scale (default 11 ⇒ 2048
// nodes = exactly 64 warp blocks, at the engine's sharding threshold —
// this measures fork/join overhead) and base+4 (default 15 ⇒ 32768
// nodes = 1024 warp blocks, where the sharded accounting phase has real
// work to distribute and scaling is meaningful). A single small scale
// would measure scheduling overhead and call it scaling.
//
// Each (config, thread count) cell is timed over several interleaved
// rounds: the reported wall is the per-count minimum (robust to noise
// spikes on shared boxes), and the bit-identity check covers every
// round, so run-to-run determinism at a fixed thread count is verified
// alongside cross-thread-count determinism.
//
// Results are written as machine-readable JSON to BENCH_engine.json
// (override with --json FILE), one entry per scale, so the perf
// trajectory can be tracked across commits.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/runners.hpp"
#include "gen/suite.hpp"
#include "harness.hpp"
#include "metrics/table.hpp"
#include "sim/engine.hpp"
#include "util/bitset.hpp"
#include "util/parallel.hpp"

namespace {

using graffix::Csr;
using graffix::NodeId;
using graffix::Weight;
using graffix::core::Algorithm;
using graffix::core::RunConfig;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed cell run: wall-clock plus everything that must be
/// bit-identical across thread counts.
struct CellRun {
  double wall = 0.0;
  graffix::sim::KernelStats stats;
  std::vector<double> attr;
  double sim_seconds = 0.0;
};

struct Cell {
  std::string name;
  std::function<CellRun()> run;
};

/// Order-sensitive digest of a frontier/changed list, representable
/// exactly as a double (52 low bits of an FNV-1a fold): two lists agree
/// on the digest only if they hold the same vertices in the same order,
/// which is exactly what the serial replay promises.
double order_digest(const std::vector<NodeId>& list) {
  std::uint64_t h = 1469598103934665603ull;
  for (const NodeId v : list) h = (h ^ v) * 1099511628211ull;
  return static_cast<double>(h & ((std::uint64_t{1} << 52) - 1));
}

NodeId max_degree_node(const Csr& graph) {
  NodeId best = 0, best_degree = 0;
  for (NodeId v = 0; v < graph.num_slots(); ++v) {
    if (!graph.is_hole(v) && graph.degree(v) > best_degree) {
      best = v;
      best_degree = graph.degree(v);
    }
  }
  return best;
}

/// Runs the full cell matrix at one scale; returns false on any
/// cross-thread-count drift. Appends this scale's JSON object to `json`
/// when it is non-null.
bool run_scale(const graffix::bench::BenchOptions& options, std::uint32_t scale,
               FILE* json, bool first_scale) {
  const Csr graph =
      graffix::make_preset(graffix::GraphPreset::Rmat26, scale, options.seed);
  const NodeId source = max_degree_node(graph);
  const int engine_reps = scale >= 13 ? 5 : 20;

  std::vector<Cell> cells;

  // Raw lockstep sweeps with a Jacobi min-plus functor (reads the
  // previous sweep's snapshot, merges min into `next`): exercises the
  // sharded accounting phase plus the serial replay, one of the cells
  // the CI speedup floor gates on.
  cells.push_back({"engine_sweep", [&] {
    CellRun r;
    graffix::sim::Engine engine(graph, graffix::sim::SimConfig{});
    const auto items = graffix::sim::items_all_vertices(graph);
    graffix::sim::SweepOptions opts;
    opts.weighted = graph.has_weights();
    std::vector<double> dist(graph.num_slots(),
                             std::numeric_limits<double>::infinity());
    dist[source] = 0.0;
    std::vector<double> next(dist);
    const double t0 = now_seconds();
    for (int rep = 0; rep < engine_reps; ++rep) {
      engine.sweep_gated(
          items, opts, [&](NodeId u) { return std::isfinite(dist[u]); },
          [&](NodeId u, NodeId v, Weight w) {
            const double nd = dist[u] + static_cast<double>(w);
            if (nd < next[v]) {
              next[v] = nd;
              return true;
            }
            return false;
          },
          r.stats);
      dist = next;
    }
    r.wall = now_seconds() - t0;
    r.attr = std::move(dist);
    return r;
  }});

  // Same sweeps with the Gauss-Seidel variant (relaxes against the array
  // it writes, so a commit feeds later calls of the same sweep): the
  // order-sensitive shape of SSSP's cluster rounds.
  cells.push_back({"engine_sweep_serial", [&] {
    CellRun r;
    graffix::sim::Engine engine(graph, graffix::sim::SimConfig{});
    const auto items = graffix::sim::items_all_vertices(graph);
    graffix::sim::SweepOptions opts;
    opts.weighted = graph.has_weights();
    std::vector<double> dist(graph.num_slots(),
                             std::numeric_limits<double>::infinity());
    dist[source] = 0.0;
    const double t0 = now_seconds();
    for (int rep = 0; rep < engine_reps; ++rep) {
      engine.sweep_gated(
          items, opts, [&](NodeId u) { return std::isfinite(dist[u]); },
          [&](NodeId u, NodeId v, Weight w) {
            const double nd = dist[u] + static_cast<double>(w);
            if (nd < dist[v]) {
              dist[v] = nd;
              return true;
            }
            return false;
          },
          r.stats);
    }
    r.wall = now_seconds() - t0;
    r.attr = std::move(dist);
    return r;
  }});

  // SSSP relax exactly as run_sssp runs it: the stall-detection sums,
  // the discovery flag and the changed list live in plain locals. The
  // per-rep values — the very values the stall decision reads — are
  // folded into attr, so the bit-identity gate covers the stall and
  // frontier decisions, not just the distances.
  cells.push_back({"sssp_relax", [&] {
    CellRun r;
    graffix::sim::Engine engine(graph, graffix::sim::SimConfig{});
    const auto items = graffix::sim::items_all_vertices(graph);
    graffix::sim::SweepOptions opts;
    opts.weighted = graph.has_weights();
    graffix::AtomicBitset changed_mask(graph.num_slots());
    std::vector<double> dist(graph.num_slots(),
                             std::numeric_limits<double>::infinity());
    dist[source] = 0.0;
    std::vector<double> next(dist);
    const double eps = 1e-9;
    std::vector<NodeId> changed;
    std::vector<double> decisions;
    const double t0 = now_seconds();
    for (int rep = 0; rep < engine_reps; ++rep) {
      double improvement = 0.0;
      double improvement_base = 0.0;
      bool discovered = false;
      changed.clear();
      changed_mask.clear();
      engine.sweep_gated(
          items, opts, [&](NodeId u) { return std::isfinite(dist[u]); },
          [&](NodeId u, NodeId v, Weight w) {
            const double nd = dist[u] + static_cast<double>(w);
            if (nd < next[v] - eps * (1.0 + std::abs(nd))) {
              if (std::isfinite(next[v])) {
                improvement += next[v] - nd;
              } else {
                discovered = true;
              }
              improvement_base += 1.0 + std::abs(nd);
              next[v] = nd;
              if (changed_mask.set(v)) changed.push_back(v);
              return true;
            }
            return false;
          },
          r.stats);
      dist = next;
      decisions.push_back(improvement);
      decisions.push_back(improvement_base);
      decisions.push_back(discovered ? 1.0 : 0.0);
      decisions.push_back(static_cast<double>(changed.size()));
      decisions.push_back(order_digest(changed));
    }
    r.wall = now_seconds() - t0;
    r.attr = std::move(dist);
    r.attr.insert(r.attr.end(), decisions.begin(), decisions.end());
    return r;
  }});

  // BC forward exactly as run_bc runs it (sigma merge plus frontier
  // discovery appended to a plain list): one full level-synchronous
  // forward pass per rep, every wave's frontier size and order digest
  // folded into attr alongside sigma and the levels.
  cells.push_back({"bc_forward", [&] {
    CellRun r;
    graffix::sim::Engine engine(graph, graffix::sim::SimConfig{});
    const auto items = graffix::sim::items_all_vertices(graph);
    const graffix::sim::SweepOptions opts{};
    const NodeId n_slots = graph.num_slots();
    std::vector<NodeId> level(n_slots);
    std::vector<double> sigma(n_slots);
    std::vector<double> waves;
    const int reps = std::max(1, engine_reps / 4);
    const double t0 = now_seconds();
    for (int rep = 0; rep < reps; ++rep) {
      std::fill(level.begin(), level.end(), graffix::kInvalidNode);
      std::fill(sigma.begin(), sigma.end(), 0.0);
      level[source] = 0;
      sigma[source] = 1.0;
      NodeId depth = 0;
      while (true) {
        std::vector<NodeId> next_frontier;
        engine.sweep_gated(
            items, opts, [&](NodeId u) { return level[u] == depth; },
            [&](NodeId u, NodeId v, Weight) {
              if (level[u] != depth) return false;
              if (level[v] == graffix::kInvalidNode) {
                level[v] = depth + 1;
                next_frontier.push_back(v);
              }
              if (level[v] == depth + 1) {
                sigma[v] += sigma[u];
                return true;
              }
              return false;
            },
            r.stats);
        waves.push_back(static_cast<double>(next_frontier.size()));
        waves.push_back(order_digest(next_frontier));
        if (next_frontier.empty()) break;
        ++depth;
      }
    }
    r.wall = now_seconds() - t0;
    r.attr.assign(sigma.begin(), sigma.end());
    for (NodeId s = 0; s < n_slots; ++s) {
      r.attr.push_back(static_cast<double>(level[s]));
    }
    r.attr.insert(r.attr.end(), waves.begin(), waves.end());
    return r;
  }});

  auto algo_cell = [&](const char* name, Algorithm alg,
                       graffix::baselines::BaselineId baseline) {
    cells.push_back({name, [&, alg, baseline] {
      CellRun r;
      RunConfig rc;
      rc.baseline = baseline;
      rc.seed = options.seed;
      rc.sssp_source = source;
      rc.bc_sample_count = options.bc_sources;
      const double t0 = now_seconds();
      const auto out = graffix::core::run_algorithm(alg, graph, rc);
      r.wall = now_seconds() - t0;
      r.stats = out.stats;
      r.attr = out.attr;
      r.sim_seconds = out.sim_seconds;
      return r;
    }});
  };
  algo_cell("sssp_topology", Algorithm::SSSP,
            graffix::baselines::BaselineId::TopologyDriven);
  algo_cell("sssp_frontier", Algorithm::SSSP,
            graffix::baselines::BaselineId::GunrockLike);
  algo_cell("pagerank", Algorithm::PR,
            graffix::baselines::BaselineId::TopologyDriven);
  algo_cell("bc", Algorithm::BC,
            graffix::baselines::BaselineId::TopologyDriven);

  const std::vector<int> thread_counts{1, 2, 4, 8};
  bool scale_identical = true;

  std::printf("bench_micro_engine: scale=%u seed=%llu (rmat)\n", scale,
              static_cast<unsigned long long>(options.seed));
  graffix::metrics::Table table({"Config", "T=1 (s)", "T=2 (s)", "T=4 (s)",
                                 "T=8 (s)", "Speedup 4v1", "Speedup 8v1",
                                 "Identical"});

  if (json != nullptr) {
    std::fprintf(json, "%s{\"scale\":%u,\"configs\":[", first_scale ? "" : ",",
                 scale);
  }

  // Each (config, thread count) cell is timed kRounds times; the
  // reported wall is the MINIMUM across rounds (the standard spike-
  // proof estimator: a descheduled round cannot contaminate it the way
  // it skews a mean) and the identity check covers EVERY round, so
  // run-to-run determinism at a fixed thread count is verified too.
  // Rounds interleave the thread counts and rotate their order (a
  // Latin square: each count occupies each time slot exactly once), so
  // monotone drift — a VM getting slower mid-bench — affects all
  // counts alike instead of always taxing whichever runs last.
  constexpr std::size_t kRounds = 4;
  static_assert(kRounds == std::size_t{4});  // rotation covers all slots
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::vector<double> wall(thread_counts.size(),
                             std::numeric_limits<double>::infinity());
    CellRun ref;
    bool identical = true;
    bool have_ref = false;
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (std::size_t slot = 0; slot < thread_counts.size(); ++slot) {
        const std::size_t ti = (slot + round) % thread_counts.size();
        graffix::set_num_threads(thread_counts[ti]);
        CellRun run = cells[c].run();
        wall[ti] = std::min(wall[ti], run.wall);
        if (!have_ref) {
          ref = std::move(run);
          have_ref = true;
        } else {
          identical = identical && run.stats == ref.stats &&
                      run.attr == ref.attr &&
                      run.sim_seconds == ref.sim_seconds;
        }
      }
    }
    scale_identical = scale_identical && identical;
    auto speedup_vs_1 = [&](std::size_t ti) {
      return wall[ti] > 0.0 ? wall[0] / wall[ti] : 0.0;
    };
    const double speedup_4 = speedup_vs_1(2);
    const double speedup_8 = speedup_vs_1(3);
    table.add_row({cells[c].name, graffix::metrics::Table::num(wall[0], 4),
                   graffix::metrics::Table::num(wall[1], 4),
                   graffix::metrics::Table::num(wall[2], 4),
                   graffix::metrics::Table::num(wall[3], 4),
                   graffix::metrics::Table::speedup(speedup_4),
                   graffix::metrics::Table::speedup(speedup_8),
                   identical ? "yes" : "NO"});
    if (json != nullptr) {
      std::fprintf(json,
                   "%s{\"name\":\"%s\",\"wall_s\":{\"1\":%.9g,\"2\":%.9g,"
                   "\"4\":%.9g,\"8\":%.9g},\"speedup_4v1\":%.9g,"
                   "\"speedup_8v1\":%.9g,\"identical\":%s}",
                   c > 0 ? "," : "", cells[c].name.c_str(), wall[0], wall[1],
                   wall[2], wall[3], speedup_4, speedup_8,
                   identical ? "true" : "false");
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "],\"identical\":%s}",
                 scale_identical ? "true" : "false");
  }
  table.print();
  return scale_identical;
}

}  // namespace

int main(int argc, char** argv) {
  // Read before parse_args pins --threads: with no override this is the
  // CPU count of the process affinity mask.
  const int procs = graffix::num_threads();
  auto options = graffix::bench::parse_args(argc, argv);
  const std::string json_path =
      options.json_path.empty() ? "BENCH_engine.json" : options.json_path;

  // Two points of the scale axis: at the sharding threshold and well
  // above it (see the file comment).
  const std::vector<std::uint32_t> scales{options.scale, options.scale + 4};

  // Stage the document and rename it into place at the end: a rerun
  // into the same path atomically replaces the previous document, and
  // an aborted run cannot leave a truncated one behind.
  const std::string json_tmp = json_path + ".tmp";
  FILE* json = std::fopen(json_tmp.c_str(), "w");
  if (json != nullptr) {
    // "procs" records the machine width this document was measured on:
    // CI's speedup floor only makes sense where 8 workers can actually
    // run, so the gate reads it to decide warn-only vs hard.
    // schema 2: adds the sssp_relax/bc_forward cells and their *_serial
    // twins to every scale's configs.
    // schema 3: adds the 4-thread wall and speedup_4v1 to every config.
    // schema 4: drops sssp_relax_serial and bc_forward_serial — every
    // sweep now replays serially, so they ran the same functor down the
    // same path as sssp_relax and bc_forward.
    std::fprintf(json,
                 "{\"bench\":\"bench_micro_engine\",\"schema\":4,"
                 "\"seed\":%llu,\"procs\":%d,\"scales\":[",
                 static_cast<unsigned long long>(options.seed), procs);
  }

  bool all_identical = true;
  for (std::size_t s = 0; s < scales.size(); ++s) {
    all_identical =
        run_scale(options, scales[s], json, /*first_scale=*/s == 0) &&
        all_identical;
  }
  graffix::set_num_threads(
      options.threads > 0 ? static_cast<int>(options.threads) : 0);

  if (json != nullptr) {
    std::fprintf(json, "],\"identical\":%s}\n",
                 all_identical ? "true" : "false");
    std::fclose(json);
    std::rename(json_tmp.c_str(), json_path.c_str());
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: results drift across thread counts (see table)\n");
    return 1;
  }
  return 0;
}
