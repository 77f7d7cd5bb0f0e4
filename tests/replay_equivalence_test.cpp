// Replay-equivalence contract for the sharded sweep (DESIGN.md §7): for
// every functor shape the algorithms actually use — min-merge (SSSP
// relax, BFS levels), sum-merge (PageRank push and pull), ordered absorb
// (BC backward contributions), and a Gauss-Seidel chain that reads its
// own commits — the two-phase path (sharded Phase A, serial Phase B)
// must produce KernelStats and attribute bits IDENTICAL to the fused
// serial oracle, at every thread count and forced chunking, including a
// partial tail warp and a fully gated-out block.
//
// The sweep-aggregate shapes extend the contract to functors that also
// keep per-sweep totals in plain caller state: the runner's SSSP relax
// (stall sums + discovery flag + changed-list appends, exact-threshold
// tie rejections included) and BC forward (frontier appends, down to the
// empty final wave and a full-frontier sweep) must reproduce every
// aggregate and the append ORDER bit-for-bit. Driver-level tests then
// force the global chunk policy and pin full run_algorithm outputs
// (attr, stats, sim_seconds, trace) for run_sssp and run_bc against the
// unforced one-thread baseline. The accounting memo is pinned the same
// way: a warm memo must give the KernelStats of a fresh, memo-less
// engine after every sweep of a schedule whose gates and options change
// and recur. The engine's reentrancy guard is pinned by death tests:
// nested sweeps on one engine die loudly instead of corrupting scratch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/runners.hpp"
#include "gen/suite.hpp"
#include "graph/csr.hpp"
#include "sim/engine.hpp"
#include "util/bitset.hpp"
#include "util/parallel.hpp"

namespace graffix {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};
constexpr std::size_t kChunkCounts[] = {2, 8};
// Sweep-aggregate matrix: single-chunk, mid, and one-chunk-per-block —
// 4096 exceeds every block count used here, so the policy clamp makes it
// the "whole" (maximally sharded) configuration.
constexpr std::size_t kWideChunkCounts[] = {1, 4, 4096};

/// Pins the worker pool, runs fn, restores the hardware default.
template <typename Fn>
auto at_threads(int t, Fn&& fn) {
  const ScopedNumThreads pin(t);
  return fn();
}

NodeId busiest_node(const Csr& g) {
  NodeId best = 0, best_degree = 0;
  for (NodeId v = 0; v < g.num_slots(); ++v) {
    if (!g.is_hole(v) && g.degree(v) > best_degree) {
      best = v;
      best_degree = g.degree(v);
    }
  }
  return best;
}

/// Everything one functor-shape run must reproduce bit-for-bit.
struct SweepRun {
  sim::KernelStats stats;
  std::vector<double> attr;
};

void expect_same_run(const SweepRun& oracle, const SweepRun& got,
                     const std::string& what) {
  EXPECT_EQ(got.stats, oracle.stats) << what << ": stats differ";
  ASSERT_EQ(got.attr.size(), oracle.attr.size()) << what;
  EXPECT_EQ(std::memcmp(got.attr.data(), oracle.attr.data(),
                        got.attr.size() * sizeof(double)),
            0)
      << what << ": attribute bits differ";
}

/// One functor shape: given a forced chunk count, runs the full sweep
/// sequence on a fresh engine and returns the run record. chunks == 0
/// leaves the automatic policy (the fused serial path at one thread on
/// any machine — the reference oracle).
using ShapeFn = std::function<SweepRun(std::size_t chunks)>;

/// Drives the full differential matrix for one shape: fused serial
/// oracle vs the two-phase path at every (chunks, threads) cell.
void run_shape_differential(const ShapeFn& shape, const char* name,
                            std::span<const std::size_t> chunk_list) {
  const SweepRun oracle = at_threads(1, [&] { return shape(/*chunks=*/0); });
  EXPECT_GT(oracle.stats.atomic_commits, 0u)
      << name << ": vacuous shape proves nothing";

  for (std::size_t chunks : chunk_list) {
    for (int t : kThreadCounts) {
      const SweepRun got = at_threads(t, [&] { return shape(chunks); });
      expect_same_run(oracle, got,
                      std::string(name) + " | chunks=" +
                          std::to_string(chunks) +
                          " threads=" + std::to_string(t));
    }
  }
}

void run_shape_differential(const ShapeFn& shape, const char* name) {
  run_shape_differential(shape, name, kChunkCounts);
}

/// Work list with a genuinely partial tail warp (3 items dropped) and a
/// gate window [dead_lo, dead_hi) covering one full non-tail warp block
/// that stays dead for the whole run — the two block shapes where the
/// sharded chunk lists could plausibly diverge from the fused walk.
struct ShapeInputs {
  Csr graph;
  std::vector<sim::WorkItem> all_items;
  std::span<const sim::WorkItem> items;
  NodeId source = 0;
  NodeId dead_lo = 0;
  NodeId dead_hi = 0;
};

ShapeInputs make_inputs() {
  ShapeInputs in;
  in.graph = make_preset(GraphPreset::Rmat26, 11, 13);
  in.all_items = sim::items_all_vertices(in.graph);
  const std::uint32_t ws = sim::SimConfig{}.warp_size;
  in.items = std::span<const sim::WorkItem>(in.all_items.data(),
                                            in.all_items.size() - 3);
  EXPECT_NE(in.items.size() % ws, 0u);  // tail warp genuinely partial
  in.source = busiest_node(in.graph);
  // No holes in the preset, so slot == item index and the window covers
  // exactly one warp block; avoid the source's own block.
  const std::size_t dead_b = (in.source / ws == 5) ? 6 : 5;
  in.dead_lo = static_cast<NodeId>(dead_b * ws);
  in.dead_hi = in.dead_lo + ws;
  return in;
}

/// True for sources outside the dead window (composed into every gate).
bool live_src(const ShapeInputs& in, NodeId u) {
  return u < in.dead_lo || u >= in.dead_hi;
}

// --- the five merge shapes + the order-sensitive one ------------------

/// SSSP-style Jacobi min-plus: relaxes next[] from a stable dist[]
/// snapshot — the exact shape of the bench engine_sweep cell.
ShapeFn minplus_shape(const ShapeInputs& in) {
  return [&in](std::size_t chunks) {
    SweepRun r;
    sim::Engine engine(in.graph, sim::SimConfig{});
    const sim::ScopedSweepChunks forced(engine, chunks);
    sim::SweepOptions opts;
    opts.weighted = in.graph.has_weights();
    std::vector<double> dist(in.graph.num_slots(),
                             std::numeric_limits<double>::infinity());
    dist[in.source] = 0.0;
    std::vector<double> next(dist);
    for (int s = 0; s < 3; ++s) {
      engine.sweep_gated(
          in.items, opts,
          [&](NodeId u) { return live_src(in, u) && std::isfinite(dist[u]); },
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
    r.attr = std::move(dist);
    return r;
  };
}

/// BFS-style Jacobi level merge: integer min into next_level[].
ShapeFn bfs_shape(const ShapeInputs& in) {
  return [&in](std::size_t chunks) {
    constexpr std::uint32_t kUnset = 0xffffffffu;
    SweepRun r;
    sim::Engine engine(in.graph, sim::SimConfig{});
    const sim::ScopedSweepChunks forced(engine, chunks);
    sim::SweepOptions opts;
    opts.weighted = false;
    std::vector<std::uint32_t> level(in.graph.num_slots(), kUnset);
    level[in.source] = 0;
    std::vector<std::uint32_t> next(level);
    for (int s = 0; s < 3; ++s) {
      engine.sweep_gated(
          in.items, opts,
          [&](NodeId u) { return live_src(in, u) && level[u] != kUnset; },
          [&](NodeId u, NodeId v, Weight) {
            const std::uint32_t nl = level[u] + 1;
            if (nl < next[v]) {
              next[v] = nl;
              return true;
            }
            return false;
          },
          r.stats);
      level = next;
    }
    r.attr.assign(level.begin(), level.end());
    return r;
  };
}

/// PageRank push: FP sum merged into next[v] — the shape where the
/// per-target accumulation ORDER is observable in the bits, so this is
/// the test that would catch any chunking-dependent absorb order.
ShapeFn pr_push_shape(const ShapeInputs& in) {
  return [&in](std::size_t chunks) {
    SweepRun r;
    sim::Engine engine(in.graph, sim::SimConfig{});
    const sim::ScopedSweepChunks forced(engine, chunks);
    sim::SweepOptions opts;
    opts.weighted = false;
    const std::size_t n = in.graph.num_slots();
    std::vector<double> rank(n, 1.0 / static_cast<double>(n));
    std::vector<double> next(n, 0.15 / static_cast<double>(n));
    for (int s = 0; s < 2; ++s) {
      engine.sweep_gated(
          in.items, opts,
          [&](NodeId u) { return live_src(in, u) && in.graph.degree(u) > 0; },
          [&](NodeId u, NodeId v, Weight) {
            next[v] += 0.85 * rank[u] / static_cast<double>(in.graph.degree(u));
            return true;
          },
          r.stats);
      rank.swap(next);
      std::fill(next.begin(), next.end(), 0.15 / static_cast<double>(n));
    }
    r.attr = std::move(rank);
    return r;
  };
}

/// PageRank pull: FP sum merged into the SOURCE side (next[u] gathers
/// from stable rank[v]) — the source-indexed write.
ShapeFn pr_pull_shape(const ShapeInputs& in) {
  return [&in](std::size_t chunks) {
    SweepRun r;
    sim::Engine engine(in.graph, sim::SimConfig{});
    const sim::ScopedSweepChunks forced(engine, chunks);
    sim::SweepOptions opts;
    opts.weighted = false;
    const std::size_t n = in.graph.num_slots();
    std::vector<double> rank(n, 1.0 / static_cast<double>(n));
    std::vector<double> next(n, 0.15 / static_cast<double>(n));
    for (int s = 0; s < 2; ++s) {
      engine.sweep_gated(
          in.items, opts, [&](NodeId u) { return live_src(in, u); },
          [&](NodeId u, NodeId v, Weight) {
            const NodeId deg = std::max<NodeId>(in.graph.degree(v), 1);
            next[u] += 0.85 * rank[v] / static_cast<double>(deg);
            return true;
          },
          r.stats);
      rank.swap(next);
      std::fill(next.begin(), next.end(), 0.15 / static_cast<double>(n));
    }
    r.attr = std::move(rank);
    return r;
  };
}

/// BC-backward-style ordered absorb: delta[u] accumulates sigma-weighted
/// contributions read from sweep-stable arrays (sigma, prev).
ShapeFn bc_absorb_shape(const ShapeInputs& in) {
  return [&in](std::size_t chunks) {
    SweepRun r;
    sim::Engine engine(in.graph, sim::SimConfig{});
    const sim::ScopedSweepChunks forced(engine, chunks);
    sim::SweepOptions opts;
    opts.weighted = false;
    const std::size_t n = in.graph.num_slots();
    // Deterministic stand-ins for path counts and child deltas.
    std::vector<double> sigma(n), prev(n);
    for (std::size_t v = 0; v < n; ++v) {
      sigma[v] = 1.0 + static_cast<double>(in.graph.degree(
                           static_cast<NodeId>(v)));
      prev[v] = static_cast<double>((v * 2654435761u) & 0xff) / 256.0;
    }
    std::vector<double> delta(n, 0.0);
    engine.sweep_gated(
        in.items, opts, [&](NodeId u) { return live_src(in, u); },
        [&](NodeId u, NodeId v, Weight) {
          delta[u] += (sigma[u] / sigma[v]) * (1.0 + prev[v]);
          return true;
        },
        r.stats);
    r.attr = std::move(delta);
    return r;
  };
}

TEST(ReplayEquivalence, MinPlusMatchesSerialReplay) {
  const ShapeInputs in = make_inputs();
  run_shape_differential(minplus_shape(in), "sssp-minplus");
}

TEST(ReplayEquivalence, BfsLevelMatchesSerialReplay) {
  const ShapeInputs in = make_inputs();
  run_shape_differential(bfs_shape(in), "bfs-level");
}

TEST(ReplayEquivalence, PageRankPushSumMatchesSerialReplay) {
  const ShapeInputs in = make_inputs();
  run_shape_differential(pr_push_shape(in), "pr-push-sum");
}

TEST(ReplayEquivalence, PageRankPullSumMatchesSerialReplay) {
  const ShapeInputs in = make_inputs();
  run_shape_differential(pr_pull_shape(in), "pr-pull-sum");
}

TEST(ReplayEquivalence, BcAbsorbMatchesSerialReplay) {
  const ShapeInputs in = make_inputs();
  run_shape_differential(bc_absorb_shape(in), "bc-absorb");
}

// --- sweep-aggregate shapes ------------------------------------------

/// The runner's SSSP relax with its sweep aggregates: the stall sums
/// (improvement, base), the discovery flag, and the changed list — every
/// value the driver's stall and frontier decisions read — are folded into
/// attr alongside the stall verdict evaluated at the exact runner
/// threshold, so the memcmp pins the decisions themselves, not just the
/// distances. With `weighted == false` the unit-step relaxation makes
/// equal-length paths collide at the exact commit threshold
/// (nd == next[v]); those ties must be REJECTED identically on every
/// path, and `ties` counts them so the tie case is proven to occur,
/// never vacuous.
ShapeFn sssp_relax_shape(const ShapeInputs& in, bool weighted) {
  return [&in, weighted](std::size_t chunks) {
    const double eps = weighted ? 1e-9 : 0.0;
    SweepRun r;
    sim::Engine engine(in.graph, sim::SimConfig{});
    const sim::ScopedSweepChunks forced(engine, chunks);
    sim::SweepOptions opts;
    opts.weighted = weighted && in.graph.has_weights();
    const std::size_t n = in.graph.num_slots();
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    dist[in.source] = 0.0;
    std::vector<double> next(dist);
    std::vector<NodeId> changed;
    AtomicBitset changed_mask(n);
    for (int s = 0; s < 3; ++s) {
      double improvement = 0.0;
      double improvement_base = 0.0;
      double ties = 0.0;
      bool discovered = false;
      changed.clear();
      changed_mask.clear();
      engine.sweep_gated(
          in.items, opts,
          [&](NodeId u) { return live_src(in, u) && std::isfinite(dist[u]); },
          [&](NodeId u, NodeId v, Weight w) {
            const double step = weighted ? static_cast<double>(w) : 1.0;
            const double nd = dist[u] + step;
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
            if (nd == next[v]) ties += 1.0;  // exact-threshold tie
            return false;
          },
          r.stats);
      r.attr.push_back(improvement);
      r.attr.push_back(improvement_base);
      r.attr.push_back(discovered ? 1.0 : 0.0);
      r.attr.push_back(ties);
      // The runner's stall verdict, bit for bit: a one-ULP drift in the
      // sums could flip this comparison near the threshold.
      r.attr.push_back(
          (!discovered &&
           improvement < 100.0 * eps * std::max(1.0, improvement_base))
              ? 1.0
              : 0.0);
      r.attr.push_back(static_cast<double>(changed.size()));
      for (NodeId v : changed) r.attr.push_back(static_cast<double>(v));
      dist = next;
    }
    r.attr.insert(r.attr.end(), dist.begin(), dist.end());
    return r;
  };
}

/// The runner's BC forward: level-synchronous sigma sums with the next
/// frontier appended to a plain list. Each wave's frontier — size AND
/// contents, in discovery order — goes into attr, so the memcmp pins the
/// exact slot order the next wave's work list is built from. The matrix
/// covers the empty final wave (the loop's exit decision) and, after the
/// BFS drains, one full-frontier sweep: every slot gated in at once
/// (dead window included), the maximal-work / near-zero-append extreme
/// of the same shape.
ShapeFn bc_forward_shape(const ShapeInputs& in) {
  return [&in](std::size_t chunks) {
    SweepRun r;
    sim::Engine engine(in.graph, sim::SimConfig{});
    const sim::ScopedSweepChunks forced(engine, chunks);
    sim::SweepOptions opts;
    opts.weighted = false;
    const std::size_t n = in.graph.num_slots();
    std::vector<NodeId> level(n, kInvalidNode);
    std::vector<double> sigma(n, 0.0);
    level[in.source] = 0;
    sigma[in.source] = 1.0;
    NodeId depth = 0;
    std::vector<NodeId> frontier;
    auto forward = [&](NodeId u, NodeId v, Weight) {
      if (level[u] != depth) return false;
      if (level[v] == kInvalidNode) {
        level[v] = depth + 1;
        frontier.push_back(v);
      }
      if (level[v] == depth + 1) {
        sigma[v] += sigma[u];
        return true;
      }
      return false;
    };
    while (depth < static_cast<NodeId>(n)) {
      frontier.clear();
      engine.sweep_gated(
          in.items, opts,
          [&](NodeId u) { return live_src(in, u) && level[u] == depth; },
          forward, r.stats);
      r.attr.push_back(static_cast<double>(frontier.size()));
      for (NodeId v : frontier) r.attr.push_back(static_cast<double>(v));
      if (frontier.empty()) break;  // the empty-frontier exit decision
      ++depth;
    }
    frontier.clear();
    engine.sweep_gated(in.items, opts, [](NodeId) { return true; }, forward,
                       r.stats);
    r.attr.push_back(static_cast<double>(frontier.size()));
    for (NodeId v : frontier) r.attr.push_back(static_cast<double>(v));
    r.attr.insert(r.attr.end(), sigma.begin(), sigma.end());
    for (NodeId lv : level) r.attr.push_back(static_cast<double>(lv));
    return r;
  };
}

TEST(ReplayEquivalence, SsspRelaxMatchesSerialReplay) {
  const ShapeInputs in = make_inputs();
  run_shape_differential(sssp_relax_shape(in, /*weighted=*/true),
                         "sssp-relax", kWideChunkCounts);
}

TEST(ReplayEquivalence, SsspRelaxTiesAtThresholdMatchSerialReplay) {
  const ShapeInputs in = make_inputs();
  const ShapeFn shape = sssp_relax_shape(in, /*weighted=*/false);
  // The tie case must actually occur: with unit steps, multiple equal-
  // length parents per target are guaranteed on an rmat graph, and each
  // rejected exactly-at-threshold candidate bumps `ties` (attr slot 3 of
  // some sweep). Probe the serial oracle for a nonzero total first so
  // the differential below cannot pass vacuously.
  const SweepRun probe = at_threads(1, [&] { return shape(/*chunks=*/0); });
  double ties = 0.0;
  std::size_t at = 0;
  for (int s = 0; s < 3; ++s) {
    ties += probe.attr[at + 3];
    at += 6 + static_cast<std::size_t>(probe.attr[at + 5]);
  }
  EXPECT_GT(ties, 0.0) << "no exact-threshold tie ever reached the functor";
  run_shape_differential(shape, "sssp-relax-ties", kWideChunkCounts);
}

TEST(ReplayEquivalence, BcForwardFrontierMatchesSerialReplay) {
  const ShapeInputs in = make_inputs();
  run_shape_differential(bc_forward_shape(in), "bc-forward",
                         kWideChunkCounts);
}

// --- driver-level sharded path ----------------------------------------

bool same_double_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

core::RunOutput run_driver(core::Algorithm alg, baselines::BaselineId baseline,
                           const Csr& g, NodeId source) {
  core::RunConfig cfg;
  cfg.baseline = baseline;
  cfg.collect_trace = true;
  cfg.sssp_source = source;
  cfg.bc_sample_count = 4;
  return core::run_algorithm(alg, g, cfg);
}

void expect_same_output(const core::RunOutput& oracle,
                        const core::RunOutput& got, const std::string& what) {
  EXPECT_EQ(got.stats, oracle.stats) << what << ": stats differ";
  EXPECT_EQ(got.iterations, oracle.iterations) << what;
  EXPECT_TRUE(same_double_bits(got.sim_seconds, oracle.sim_seconds))
      << what << ": sim_seconds bits differ";
  EXPECT_TRUE(same_double_bits(got.scalar, oracle.scalar)) << what;
  ASSERT_EQ(got.attr.size(), oracle.attr.size()) << what;
  EXPECT_EQ(std::memcmp(got.attr.data(), oracle.attr.data(),
                        got.attr.size() * sizeof(double)),
            0)
      << what << ": attr bits differ";
  ASSERT_EQ(got.trace.size(), oracle.trace.size()) << what;
  for (std::size_t i = 0; i < got.trace.size(); ++i) {
    EXPECT_EQ(got.trace[i].iteration, oracle.trace[i].iteration) << what;
    EXPECT_EQ(got.trace[i].stats, oracle.trace[i].stats)
        << what << ": trace[" << i << "] stats differ";
  }
}

/// Runs the real driver (private engine and all) with the process-wide
/// chunk policy forced, at every thread count, and pins the COMPLETE
/// RunOutput against the unforced one-thread baseline.
void run_driver_sharded_differential(core::Algorithm alg,
                                     baselines::BaselineId baseline,
                                     const char* name) {
  const Csr g = make_preset(GraphPreset::Rmat26, 11, 13);
  const NodeId source = busiest_node(g);
  const core::RunOutput oracle =
      at_threads(1, [&] { return run_driver(alg, baseline, g, source); });
  EXPECT_GT(oracle.stats.atomic_commits, 0u) << name;
  constexpr std::size_t kDriverChunks[] = {1, 4096};
  for (std::size_t chunks : kDriverChunks) {
    for (int t : kThreadCounts) {
      const core::RunOutput got = at_threads(t, [&] {
        const sim::ScopedGlobalSweepChunks forced(chunks);
        return run_driver(alg, baseline, g, source);
      });
      expect_same_output(oracle, got,
                         std::string(name) + " | chunks=" +
                             std::to_string(chunks) +
                             " threads=" + std::to_string(t));
    }
  }
}

TEST(DriverGroupedPath, SsspTopologyDrivenBitIdentical) {
  run_driver_sharded_differential(core::Algorithm::SSSP,
                                  baselines::BaselineId::TopologyDriven,
                                  "run_sssp/topology");
}

TEST(DriverGroupedPath, SsspGunrockLikeBitIdentical) {
  run_driver_sharded_differential(core::Algorithm::SSSP,
                                  baselines::BaselineId::GunrockLike,
                                  "run_sssp/gunrock");
}

TEST(DriverGroupedPath, BcTopologyDrivenBitIdentical) {
  run_driver_sharded_differential(core::Algorithm::BC,
                                  baselines::BaselineId::TopologyDriven,
                                  "run_bc/topology");
}

TEST(ReplayEquivalence, OrderSensitiveFunctorTakesSerialFallback) {
  // Gauss-Seidel relaxation reads the SAME array it merges into, so
  // cross-target order is observable: the two-phase path's serial
  // Phase B must still match the fused serial engine bit for bit.
  const ShapeInputs in = make_inputs();
  auto run = [&](std::size_t chunks) {
    SweepRun r;
    sim::Engine engine(in.graph, sim::SimConfig{});
    const sim::ScopedSweepChunks forced(engine, chunks);
    sim::SweepOptions opts;
    opts.weighted = in.graph.has_weights();
    std::vector<double> dist(in.graph.num_slots(),
                             std::numeric_limits<double>::infinity());
    dist[in.source] = 0.0;
    for (int s = 0; s < 3; ++s) {
      engine.sweep_gated(
          in.items, opts,
          [&](NodeId u) { return live_src(in, u) && std::isfinite(dist[u]); },
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
    r.attr = std::move(dist);
    return r;
  };
  const SweepRun oracle = at_threads(1, [&] { return run(0); });
  EXPECT_GT(oracle.stats.atomic_commits, 0u);
  for (std::size_t chunks : kChunkCounts) {
    for (int t : kThreadCounts) {
      const SweepRun got = at_threads(t, [&] { return run(chunks); });
      expect_same_run(oracle, got,
                      "gauss-seidel | chunks=" + std::to_string(chunks) +
                          " threads=" + std::to_string(t));
    }
  }
}

// --- accounting memo: a warm memo equals a fresh engine ----------------

/// One sweep of the memo schedule: which gate, and the options the memo
/// keys on.
struct MemoStep {
  int gate;
  bool edges_resident;
  bool weighted;
  bool shared_attr = false;
};

// Gates change and recur, edge residency and the weights stream flip on
// and off, and the attribute space joins the key. Shared-attribute
// sweeps repeat, so hits carry shared accesses and bank conflicts too.
constexpr MemoStep kMemoSchedule[] = {
    {0, false, true},       {0, false, true},
    {1, false, true},       {1, true, true},
    {0, true, true},        {0, false, false},
    {2, false, false},      {1, false, true},
    {2, true, false},       {0, false, true, true},
    {0, false, true, true}, {1, false, true},
};

/// Items over every slot minus the last 3 (a partial tail warp at warp
/// sizes 8, 32 and 64), with every 7th item cut to zero length so that
/// gated-in empty lanes sit inside live blocks.
std::vector<sim::WorkItem> memo_items(const Csr& g) {
  std::vector<sim::WorkItem> items = sim::items_all_vertices(g);
  items.resize(items.size() - 3);
  for (std::size_t i = 0; i < items.size(); i += 7) items[i].edge_count = 0;
  return items;
}

/// Three gates over sources: all, a stride, and a window that kills the
/// first 100 slots (whole blocks at every warp size) plus a stride.
bool memo_gate(int gate, NodeId u) {
  switch (gate) {
    case 0:
      return true;
    case 1:
      return u % 3 != 1;
    default:
      return u >= 100 && u % 5 < 3;
  }
}

/// Sweeps the schedule on one engine whose memo persists and, after every
/// sweep, compares its KernelStats and attributes with a fresh, memo-less
/// engine that ran the same sweep from the same state.
void expect_warm_memo_matches_fresh(const Csr& g, std::uint32_t warp_size,
                                    std::size_t chunks, int threads) {
  sim::SimConfig config;
  config.warp_size = warp_size;
  const std::vector<sim::WorkItem> items = memo_items(g);
  const ScopedNumThreads pin(threads);
  sim::Engine warm(g, config);
  const sim::ScopedSweepChunks forced(warm, chunks);
  sim::BlockMemo memo;
  std::uint64_t bank_conflicts = 0;
  std::vector<double> warm_attr(g.num_slots(), 1.0);
  std::vector<double> fresh_attr = warm_attr;
  for (std::size_t i = 0; i < std::size(kMemoSchedule); ++i) {
    const MemoStep& step = kMemoSchedule[i];
    sim::SweepOptions opts;
    opts.edges_resident = step.edges_resident;
    opts.weighted = step.weighted;
    if (step.shared_attr) opts.attr_space = sim::AttrSpace::Shared;
    const auto gate = [&](NodeId u) { return memo_gate(step.gate, u); };
    const auto relax = [](std::vector<double>& attr) {
      return [&attr](NodeId u, NodeId v, Weight w) {
        const double nd = attr[u] + static_cast<double>(w);
        if (nd < attr[v] || attr[v] == 1.0) {
          attr[v] = nd * 0.5;
          return true;
        }
        return false;
      };
    };
    sim::KernelStats warm_stats;
    warm.sweep_gated(items, opts, gate, relax(warm_attr), warm_stats, &memo);
    sim::Engine fresh(g, config);
    sim::KernelStats fresh_stats;
    fresh.sweep_gated(items, opts, gate, relax(fresh_attr), fresh_stats);
    const std::string what =
        "ws=" + std::to_string(warp_size) + " chunks=" +
        std::to_string(chunks) + " threads=" + std::to_string(threads) +
        " weighted graph=" + std::to_string(g.has_weights()) + " sweep " +
        std::to_string(i);
    EXPECT_GT(fresh_stats.active_lanes, 0u) << what;
    bank_conflicts += fresh_stats.bank_conflicts;
    expect_same_run({fresh_stats, fresh_attr}, {warm_stats, warm_attr}, what);
  }
  EXPECT_GT(bank_conflicts, 0u);
}

Csr without_weights(const Csr& g) {
  return Csr(std::vector<EdgeId>(g.offsets().begin(), g.offsets().end()),
             std::vector<NodeId>(g.targets().begin(), g.targets().end()));
}

TEST(AccountingMemo, WarmMemoMatchesFreshEngineEverySweep) {
  // chunks == 0 is the automatic policy: the fused path at 1 thread.
  constexpr std::size_t kMemoChunks[] = {0, 1, 3, 8};
  const Csr weighted = make_preset(GraphPreset::Rmat26, 11, 13);
  ASSERT_TRUE(weighted.has_weights());
  const Csr unweighted = without_weights(weighted);
  for (const Csr* g : {&weighted, &unweighted}) {
    for (const std::uint32_t ws : {8u, 32u, 64u}) {
      for (const std::size_t chunks : kMemoChunks) {
        for (const int t : kThreadCounts) {
          expect_warm_memo_matches_fresh(*g, ws, chunks, t);
        }
      }
    }
  }
}

TEST(AccountingMemo, HitsAddCachedCountersWithoutRecounting) {
  // Proof that the memo is consulted at all: it trusts its list, so
  // shortening a live item under a warm memo (which the contract forbids)
  // must leave the stale counters in place, while a fresh engine sees
  // the change.
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 13);
  std::vector<sim::WorkItem> items = sim::items_all_vertices(g);
  sim::Engine warm(g, sim::SimConfig{});
  sim::BlockMemo memo;
  sim::SweepOptions opts;
  const auto none = [](NodeId, NodeId, Weight) { return false; };
  sim::KernelStats first;
  warm.sweep(items, opts, none, first, &memo);
  const NodeId hub = busiest_node(g);
  ASSERT_GT(items[hub].edge_count, 1u);
  items[hub].edge_count = 1;
  sim::KernelStats stale;
  warm.sweep(items, opts, none, stale, &memo);
  EXPECT_EQ(stale, first);
  sim::Engine fresh(g, sim::SimConfig{});
  sim::KernelStats recounted;
  fresh.sweep(items, opts, none, recounted);
  EXPECT_LT(recounted.active_lanes, first.active_lanes);
}

TEST(AccountingMemoDeathTest, MemoRefusesAnotherList) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 13);
  const auto items = sim::items_all_vertices(g);
  const auto other = items;
  const auto rebind = [&] {
    sim::Engine engine(g, sim::SimConfig{});
    sim::BlockMemo memo;
    sim::KernelStats stats;
    const auto none = [](NodeId, NodeId, Weight) { return false; };
    engine.sweep(items, sim::SweepOptions{}, none, stats, &memo);
    engine.sweep(other, sim::SweepOptions{}, none, stats, &memo);
  };
  EXPECT_DEATH(rebind(), "BlockMemo reused");
}

// --- reentrancy guard (the latent-bug fix) ---------------------------

TEST(EngineReentrancy, SequentialSharingWorks) {
  // Two logical drivers issuing sweeps on ONE engine strictly in turn is
  // legal: the per-sweep scratch is quiescent between sweeps. This is
  // the "work" half of "work or die loudly".
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 13);
  const auto items = sim::items_all_vertices(g);
  sim::Engine engine(g, sim::SimConfig{});
  sim::SweepOptions opts;
  opts.weighted = g.has_weights();
  sim::KernelStats a_stats, b_stats;
  std::vector<double> a_attr(g.num_slots(), 0.0), b_attr(g.num_slots(), 0.0);
  for (int s = 0; s < 2; ++s) {
    engine.sweep(
        items, opts,
        [&](NodeId u, NodeId v, Weight) {
          a_attr[v] += a_attr[u] + 1.0;
          return true;
        },
        a_stats);
    engine.sweep(
        items, opts,
        [&](NodeId u, NodeId v, Weight) {
          b_attr[v] += b_attr[u] + 2.0;
          return true;
        },
        b_stats);
  }
  EXPECT_GT(a_stats.atomic_commits, 0u);
  EXPECT_EQ(a_stats.atomic_commits, b_stats.atomic_commits);
}

TEST(EngineReentrancyDeathTest, NestedSweepDiesLoudly) {
  // A functor (or gate) that drives another sweep on the SAME engine
  // would silently corrupt block_meta_/chunk scratch before this PR's
  // guard; now it must abort with a diagnostic naming the contract.
  // Threadsafe style: the worker pool may hold live threads by the time
  // this test forks, and "fast" style forbids that.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 13);
  const auto items = sim::items_all_vertices(g);
  const auto nested = [&] {
    sim::Engine engine(g, sim::SimConfig{});
    sim::SweepOptions opts;
    opts.weighted = g.has_weights();
    sim::KernelStats outer;
    sim::KernelStats inner;
    engine.sweep(
        items, opts,
        [&](NodeId, NodeId, Weight) {
          engine.sweep(items, opts,
                       [](NodeId, NodeId, Weight) { return false; }, inner);
          return false;
        },
        outer);
  };
  EXPECT_DEATH(nested(), "re-entered mid-sweep");
}

TEST(EngineReentrancyDeathTest, NestedGateSweepDiesLoudly) {
  // Same contract from the gate side: gates run during Phase A, where a
  // nested sweep would race the chunk accounting itself.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 13);
  const auto items = sim::items_all_vertices(g);
  const auto nested_gate = [&] {
    sim::Engine engine(g, sim::SimConfig{});
    sim::SweepOptions opts;
    opts.weighted = g.has_weights();
    sim::KernelStats outer;
    sim::KernelStats inner;
    engine.sweep_gated(
        items, opts,
        [&](NodeId) {
          engine.sweep(items, opts,
                       [](NodeId, NodeId, Weight) { return false; }, inner);
          return true;
        },
        [](NodeId, NodeId, Weight) { return false; }, outer);
  };
  EXPECT_DEATH(nested_gate(), "re-entered mid-sweep");
}

}  // namespace
}  // namespace graffix
