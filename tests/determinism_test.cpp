// Determinism-under-parallelism contract (DESIGN.md §7): every parallel
// path in the transform substrate must produce bit-identical output for
// every thread count. These tests run the same operation at 1, 2, and 8
// threads (oversubscription included on purpose — correctness must not
// depend on the hardware pool size) and compare outputs exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/runners.hpp"
#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/rebuild.hpp"
#include "sim/engine.hpp"
#include "transform/coalescing.hpp"
#include "transform/combined.hpp"
#include "transform/confluence.hpp"
#include "transform/divergence.hpp"
#include "transform/latency.hpp"
#include "util/parallel.hpp"

namespace graffix {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

/// Pins the worker pool, runs fn, restores the hardware default.
template <typename Fn>
auto at_threads(int t, Fn&& fn) {
  const ScopedNumThreads pin(t);
  return fn();
}

void expect_same_csr(const Csr& a, const Csr& b, const char* what) {
  ASSERT_EQ(a.num_slots(), b.num_slots()) << what;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << what;
  EXPECT_TRUE(std::equal(a.offsets().begin(), a.offsets().end(),
                         b.offsets().begin()))
      << what << ": offsets differ";
  EXPECT_TRUE(std::equal(a.targets().begin(), a.targets().end(),
                         b.targets().begin()))
      << what << ": targets differ";
  ASSERT_EQ(a.has_weights(), b.has_weights()) << what;
  if (a.has_weights()) {
    EXPECT_TRUE(std::equal(a.weights().begin(), a.weights().end(),
                           b.weights().begin()))
        << what << ": weights differ";
  }
  ASSERT_EQ(a.has_holes(), b.has_holes()) << what;
  if (a.has_holes()) {
    EXPECT_TRUE(
        std::equal(a.holes().begin(), a.holes().end(), b.holes().begin()))
        << what << ": holes differ";
  }
}

// --- rebuild helpers -------------------------------------------------

TEST(Rebuild, WithExtrasAppendsInOrder) {
  GraphBuilder b(3);
  b.set_weighted(true);
  b.add_edge(0, 1, 1.0f);
  b.add_edge(0, 2, 2.0f);
  b.add_edge(2, 0, 3.0f);
  const Csr base = b.build();

  std::vector<std::vector<ExtraArc>> extra(3);
  extra[0] = {{2, 9.0f}};
  extra[1] = {{0, 4.0f}, {2, 5.0f}};
  const Csr out = rebuild_with_extras(base, extra);

  ASSERT_EQ(out.num_edges(), 6u);
  const std::vector<EdgeId> offsets(out.offsets().begin(),
                                    out.offsets().end());
  EXPECT_EQ(offsets, (std::vector<EdgeId>{0, 3, 5, 6}));
  const std::vector<NodeId> targets(out.targets().begin(),
                                    out.targets().end());
  // Base adjacency first, then extras in list order (no re-sort, no
  // dedup — transform semantics).
  EXPECT_EQ(targets, (std::vector<NodeId>{1, 2, 2, 0, 2, 0}));
  ASSERT_TRUE(out.has_weights());
  const std::vector<Weight> weights(out.weights().begin(),
                                    out.weights().end());
  EXPECT_EQ(weights,
            (std::vector<Weight>{1.0f, 2.0f, 9.0f, 4.0f, 5.0f, 3.0f}));
}

TEST(Rebuild, WithEmptyExtrasReproducesBase) {
  const Csr base = make_preset(GraphPreset::Rmat26, 8, 3);
  const Csr out = rebuild_with_extras(base, {});
  expect_same_csr(base, out, "empty extras");
}

TEST(Rebuild, ConsumingOverloadMatchesConstOverload) {
  const Csr base = make_preset(GraphPreset::Rmat26, 8, 3);
  std::vector<std::vector<ExtraArc>> extra(base.num_slots());
  extra[1] = {{2, 9.0f}, {0, 1.0f}};
  extra[base.num_slots() - 1] = {{0, 2.5f}};
  const Csr ref = rebuild_with_extras(base, extra);
  Csr owned = base;
  const Csr got = rebuild_with_extras(std::move(owned), extra);
  expect_same_csr(ref, got, "consuming rebuild");
}

TEST(Rebuild, FromAdjacencyCarriesHolesAndWeights) {
  std::vector<std::vector<ExtraArc>> adj(3);
  adj[0] = {{1, 1.5f}, {2, 2.5f}};
  adj[2] = {{0, 3.5f}};
  const Csr out =
      rebuild_from_adjacency(adj, /*weighted=*/true, {0, 1, 0});

  ASSERT_EQ(out.num_slots(), 3u);
  ASSERT_EQ(out.num_edges(), 3u);
  EXPECT_TRUE(out.is_hole(1));
  EXPECT_FALSE(out.is_hole(0));
  const std::vector<EdgeId> offsets(out.offsets().begin(),
                                    out.offsets().end());
  EXPECT_EQ(offsets, (std::vector<EdgeId>{0, 2, 2, 3}));
  const std::vector<NodeId> targets(out.targets().begin(),
                                    out.targets().end());
  EXPECT_EQ(targets, (std::vector<NodeId>{1, 2, 0}));
  ASSERT_TRUE(out.has_weights());
  EXPECT_FLOAT_EQ(out.edge_weights(0)[1], 2.5f);
  EXPECT_FLOAT_EQ(out.edge_weights(2)[0], 3.5f);
}

TEST(Rebuild, DeterministicAcrossThreadCounts) {
  const Csr base = make_preset(GraphPreset::Rmat26, 11, 5);
  std::vector<std::vector<ExtraArc>> extra(base.num_slots());
  // Deterministic synthetic extras: every 3rd slot gains two arcs.
  for (NodeId u = 0; u < base.num_slots(); u += 3) {
    extra[u] = {{(u + 1) % base.num_slots(), 1.0f},
                {(u + 7) % base.num_slots(), 2.0f}};
  }
  const Csr ref =
      at_threads(1, [&] { return rebuild_with_extras(base, extra); });
  for (int t : {2, 8}) {
    const Csr got =
        at_threads(t, [&] { return rebuild_with_extras(base, extra); });
    expect_same_csr(ref, got, "rebuild_with_extras");
  }
}

// --- Csr::transpose / symmetrized ------------------------------------

TEST(CsrDeterminism, TransposeIdenticalAcrossThreadCounts) {
  const Csr g = make_preset(GraphPreset::Rmat26, 11, 7);
  // Large enough that the parallel counting-sort path engages at t > 1.
  ASSERT_GE(g.num_edges(), std::uint64_t{1} << 14);
  const Csr ref = at_threads(1, [&] { return g.transpose(); });
  for (int t : {2, 8}) {
    const Csr got = at_threads(t, [&] { return g.transpose(); });
    expect_same_csr(ref, got, "transpose");
  }
}

TEST(CsrDeterminism, DoubleTransposeIsAFixpoint) {
  // T(T(G)) canonicalizes each row to ascending target order, so a
  // further double transpose must reproduce it exactly.
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 7);
  const Csr canon = at_threads(8, [&] { return g.transpose().transpose(); });
  EXPECT_EQ(canon.num_edges(), g.num_edges());
  ASSERT_EQ(canon.num_slots(), g.num_slots());
  const Csr again =
      at_threads(8, [&] { return canon.transpose().transpose(); });
  expect_same_csr(canon, again, "double transpose fixpoint");
}

TEST(CsrDeterminism, SymmetrizedIdenticalAcrossThreadCounts) {
  const Csr g = make_preset(GraphPreset::Rmat26, 11, 9);
  const Csr ref = at_threads(1, [&] { return g.symmetrized(); });
  for (int t : {2, 8}) {
    const Csr got = at_threads(t, [&] { return g.symmetrized(); });
    expect_same_csr(ref, got, "symmetrized");
  }
}

// --- transforms ------------------------------------------------------

TEST(TransformDeterminism, DivergenceBitIdentical) {
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 7);
  const transform::DivergenceKnobs knobs;
  const auto ref =
      at_threads(1, [&] { return transform::divergence_transform(g, knobs); });
  EXPECT_GT(ref.edges_added, 0u);  // the approximation must engage
  for (int t : {2, 8}) {
    const auto got = at_threads(
        t, [&] { return transform::divergence_transform(g, knobs); });
    expect_same_csr(ref.graph, got.graph, "divergence graph");
    EXPECT_EQ(ref.warp_order, got.warp_order);
    EXPECT_EQ(ref.edges_added, got.edges_added);
    EXPECT_DOUBLE_EQ(ref.degree_uniformity_before,
                     got.degree_uniformity_before);
    EXPECT_DOUBLE_EQ(ref.degree_uniformity_after, got.degree_uniformity_after);
  }
}

TEST(TransformDeterminism, LatencyBitIdentical) {
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 7);
  const transform::LatencyKnobs knobs;
  const auto ref =
      at_threads(1, [&] { return transform::latency_transform(g, knobs); });
  for (int t : {2, 8}) {
    const auto got =
        at_threads(t, [&] { return transform::latency_transform(g, knobs); });
    expect_same_csr(ref.graph, got.graph, "latency graph");
    EXPECT_EQ(ref.edges_added, got.edges_added);
    EXPECT_EQ(ref.schedule.resident, got.schedule.resident);
    ASSERT_EQ(ref.schedule.clusters.size(), got.schedule.clusters.size());
    for (std::size_t c = 0; c < ref.schedule.clusters.size(); ++c) {
      EXPECT_EQ(ref.schedule.clusters[c].members,
                got.schedule.clusters[c].members);
      EXPECT_EQ(ref.schedule.clusters[c].inner_iterations,
                got.schedule.clusters[c].inner_iterations);
    }
    EXPECT_DOUBLE_EQ(ref.mean_cc_before, got.mean_cc_before);
    EXPECT_DOUBLE_EQ(ref.mean_cc_after, got.mean_cc_after);
  }
}

TEST(TransformDeterminism, LatencyBatchedGreedyBitIdenticalAtScale) {
  // Aggressive knobs on a scale-12 graph (the name predates the serial
  // greedy; the test id stays stable): the parallel CC passes around
  // the scenario-1/2 insertion must leave the output bit-identical at 1,
  // 2, and 8 threads.
  const Csr g = make_preset(GraphPreset::Rmat26, 12, 7);
  transform::LatencyKnobs knobs;
  knobs.cc_threshold = 0.4;
  knobs.near_delta = 0.3;
  knobs.edge_budget_fraction = 0.1;
  const auto ref =
      at_threads(1, [&] { return transform::latency_transform(g, knobs); });
  EXPECT_GT(ref.edges_added, 0u);  // the greedy phases must have fired
  for (int t : {2, 8}) {
    const auto got =
        at_threads(t, [&] { return transform::latency_transform(g, knobs); });
    expect_same_csr(ref.graph, got.graph, "latency graph");
    EXPECT_EQ(ref.edges_added, got.edges_added);
    EXPECT_EQ(ref.schedule.resident, got.schedule.resident);
    EXPECT_EQ(ref.mean_cc_after, got.mean_cc_after) << "threads=" << t;
  }
}

TEST(TransformDeterminism, ReplicateIntoHolesBitIdentical) {
  // Direct replicate_into_holes determinism (CoalescingBitIdentical
  // covers it only through coalescing_transform): the candidate
  // enumeration and the parent-chunk hints run in parallel ahead of the
  // serial greedy.
  const Csr g = make_preset(GraphPreset::Rmat26, 12, 7);
  const transform::RenumberResult renumber =
      transform::renumber_bfs_forest(g, 16);
  const Csr renumbered = transform::apply_renumbering(g, renumber);
  transform::CoalescingKnobs knobs;
  knobs.connectedness_threshold = 0.4;
  const auto ref = at_threads(1, [&] {
    return transform::replicate_into_holes(renumbered, renumber, knobs);
  });
  EXPECT_GT(ref.holes_filled, 0u);  // replication must have engaged
  for (int t : {2, 8}) {
    const auto got = at_threads(t, [&] {
      return transform::replicate_into_holes(renumbered, renumber, knobs);
    });
    expect_same_csr(ref.graph, got.graph, "replicate graph");
    EXPECT_EQ(ref.replicas.groups, got.replicas.groups);
    EXPECT_EQ(ref.replicas.group_of_slot, got.replicas.group_of_slot);
    EXPECT_EQ(ref.edges_moved, got.edges_moved);
    EXPECT_EQ(ref.edges_added, got.edges_added);
    EXPECT_EQ(ref.holes_filled, got.holes_filled);
  }
}

TEST(TransformDeterminism, CoalescingBitIdentical) {
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 7);
  const transform::CoalescingKnobs knobs;
  const auto ref =
      at_threads(1, [&] { return transform::coalescing_transform(g, knobs); });
  for (int t : {2, 8}) {
    const auto got = at_threads(
        t, [&] { return transform::coalescing_transform(g, knobs); });
    expect_same_csr(ref.graph, got.graph, "coalescing graph");
    EXPECT_EQ(ref.renumber.slot_of_node, got.renumber.slot_of_node);
    EXPECT_EQ(ref.renumber.node_of_slot, got.renumber.node_of_slot);
    EXPECT_EQ(ref.replicas.groups, got.replicas.groups);
    EXPECT_EQ(ref.replicas.group_of_slot, got.replicas.group_of_slot);
    EXPECT_EQ(ref.edges_added, got.edges_added);
    EXPECT_EQ(ref.holes_filled, got.holes_filled);
  }
}

TEST(TransformDeterminism, CombinedBitIdentical) {
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 7);
  transform::CombinedKnobs knobs;
  knobs.coalescing.emplace();
  knobs.latency.emplace();
  knobs.divergence.emplace();
  const auto ref =
      at_threads(1, [&] { return transform::combined_transform(g, knobs); });
  for (int t : {2, 8}) {
    const auto got =
        at_threads(t, [&] { return transform::combined_transform(g, knobs); });
    expect_same_csr(ref.graph, got.graph, "combined graph");
    EXPECT_EQ(ref.warp_order, got.warp_order);
    EXPECT_EQ(ref.replicas.groups, got.replicas.groups);
    EXPECT_EQ(ref.schedule.resident, got.schedule.resident);
    EXPECT_EQ(ref.edges_added, got.edges_added);
  }
}

// --- lockstep engine -------------------------------------------------

/// One gated Bellman-Ford-style sweep sequence over `items`: the functor
/// is order-sensitive (it reads distances written by earlier lanes of
/// the same sweep), so any accidental parallelism in the functional
/// phase would change both the attribute vector and the atomic counters.
struct EngineRun {
  sim::KernelStats stats;
  std::vector<double> dist;
};

/// Maximum-out-degree node: a source that definitely reaches work.
NodeId busiest_node(const Csr& graph) {
  NodeId best = 0, best_degree = 0;
  for (NodeId v = 0; v < graph.num_slots(); ++v) {
    if (!graph.is_hole(v) && graph.degree(v) > best_degree) {
      best = v;
      best_degree = graph.degree(v);
    }
  }
  return best;
}

EngineRun run_engine_sweeps(const Csr& graph, std::span<const sim::WorkItem> items,
                            NodeId source, int sweeps) {
  EngineRun r;
  sim::Engine engine(graph, sim::SimConfig{});
  sim::SweepOptions opts;
  opts.weighted = graph.has_weights();
  r.dist.assign(graph.num_slots(), std::numeric_limits<double>::infinity());
  r.dist[source] = 0.0;
  for (int s = 0; s < sweeps; ++s) {
    engine.sweep_gated(
        items, opts,
        [&](NodeId u) { return r.dist[u] != std::numeric_limits<double>::infinity(); },
        [&](NodeId u, NodeId v, Weight w) {
          const double nd = r.dist[u] + static_cast<double>(w);
          if (nd < r.dist[v]) {
            r.dist[v] = nd;
            return true;
          }
          return false;
        },
        r.stats);
  }
  return r;
}

TEST(EngineDeterminism, GoldenStatsAcrossThreadCounts) {
  // Scale 11 -> 64 warp blocks of 32 items: comfortably above the
  // kMinBlocksToShard threshold, so t > 1 actually shards Phase A.
  const Csr g = make_preset(GraphPreset::Rmat26, 11, 13);
  const auto items = sim::items_all_vertices(g);
  ASSERT_GE(items.size() / sim::SimConfig{}.warp_size, std::size_t{32});
  const NodeId source = busiest_node(g);

  const EngineRun ref =
      at_threads(1, [&] { return run_engine_sweeps(g, items, source, 4); });
  // The serial run must do real work for the comparison to mean anything.
  EXPECT_GT(ref.stats.warp_steps, 0u);
  EXPECT_GT(ref.stats.atomic_commits, 0u);
  EXPECT_GT(ref.stats.edge_transactions, 0u);
  for (int t : {2, 8}) {
    const EngineRun got =
        at_threads(t, [&] { return run_engine_sweeps(g, items, source, 4); });
    EXPECT_EQ(got.stats, ref.stats) << "threads=" << t;
    ASSERT_EQ(got.dist.size(), ref.dist.size());
    EXPECT_EQ(std::memcmp(got.dist.data(), ref.dist.data(),
                          got.dist.size() * sizeof(double)),
              0)
        << "threads=" << t << ": attribute bits differ";
  }
}

TEST(EngineDeterminism, TailWarpWithPartialLanes) {
  // Drop a few trailing items so the last warp block has fewer than
  // warp_size lanes — the sharded accounting phase must charge the
  // partial block exactly like the serial engine does.
  const Csr g = make_preset(GraphPreset::Rmat26, 11, 13);
  const auto all = sim::items_all_vertices(g);
  const std::uint32_t ws = sim::SimConfig{}.warp_size;
  const std::span<const sim::WorkItem> items(all.data(), all.size() - 3);
  ASSERT_NE(items.size() % ws, 0u);  // the tail warp is genuinely partial
  ASSERT_GE(items.size() / ws, std::size_t{32});
  const NodeId source = busiest_node(g);

  const EngineRun ref =
      at_threads(1, [&] { return run_engine_sweeps(g, items, source, 3); });
  EXPECT_GT(ref.stats.atomic_commits, 0u);
  for (int t : {2, 8}) {
    const EngineRun got =
        at_threads(t, [&] { return run_engine_sweeps(g, items, source, 3); });
    EXPECT_EQ(got.stats, ref.stats) << "threads=" << t;
    EXPECT_EQ(std::memcmp(got.dist.data(), ref.dist.data(),
                          got.dist.size() * sizeof(double)),
              0)
        << "threads=" << t;
  }
}

/// Like run_engine_sweeps, but forces the engine's chunking policy
/// (0 = automatic) and additionally gates out every source whose slot is
/// in [dead_lo, dead_hi) — with items_all_vertices that window can cover
/// one whole warp block, making the block dead for the entire run.
EngineRun run_engine_sweeps_chunked(const Csr& graph,
                                    std::span<const sim::WorkItem> items,
                                    NodeId source, int sweeps,
                                    std::size_t chunks, NodeId dead_lo,
                                    NodeId dead_hi) {
  EngineRun r;
  sim::Engine engine(graph, sim::SimConfig{});
  const sim::ScopedSweepChunks forced_chunks(engine, chunks);
  sim::SweepOptions opts;
  opts.weighted = graph.has_weights();
  r.dist.assign(graph.num_slots(), std::numeric_limits<double>::infinity());
  r.dist[source] = 0.0;
  for (int s = 0; s < sweeps; ++s) {
    engine.sweep_gated(
        items, opts,
        [&](NodeId u) {
          if (u >= dead_lo && u < dead_hi) return false;
          return r.dist[u] != std::numeric_limits<double>::infinity();
        },
        [&](NodeId u, NodeId v, Weight w) {
          const double nd = r.dist[u] + static_cast<double>(w);
          if (nd < r.dist[v]) {
            r.dist[v] = nd;
            return true;
          }
          return false;
        },
        r.stats);
  }
  return r;
}

TEST(EngineDeterminism, FusedAndShardedPathsShareGoldenStats) {
  // The same sweep sequence through all three execution paths — the
  // fused serial path (automatic policy at one thread), the forced
  // one-chunk two-phase path, and the forced 8-chunk sharded path at 8
  // threads — must produce one golden KernelStats + attribute vector.
  // The item list has a partial tail warp (3 items dropped) AND one
  // fully gated-out block, the two shapes where live-block compaction
  // and per-block metadata could plausibly diverge from the replay.
  const Csr g = make_preset(GraphPreset::Rmat26, 11, 13);
  const auto all = sim::items_all_vertices(g);
  // No holes in the preset, so item i's source is slot i and the window
  // [dead_b*ws, dead_b*ws + ws) below covers exactly warp block dead_b.
  ASSERT_EQ(all.size(), static_cast<std::size_t>(g.num_slots()));
  const std::uint32_t ws = sim::SimConfig{}.warp_size;
  const std::span<const sim::WorkItem> items(all.data(), all.size() - 3);
  ASSERT_NE(items.size() % ws, 0u);  // the tail warp is genuinely partial
  const std::size_t n_blocks = (items.size() + ws - 1) / ws;
  ASSERT_GE(n_blocks, std::size_t{16});
  const NodeId source = busiest_node(g);

  // Gate out every source of one full (non-tail) warp block that is not
  // the SSSP source's block, so the block stays dead all run.
  const std::size_t dead_b = (source / ws == 5) ? 6 : 5;
  const NodeId dead_lo = static_cast<NodeId>(dead_b * ws);
  const NodeId dead_hi = dead_lo + ws;
  bool dead_block_has_edges = false;
  for (NodeId u = dead_lo; u < dead_hi; ++u) {
    dead_block_has_edges = dead_block_has_edges || g.degree(u) > 0;
  }
  ASSERT_TRUE(dead_block_has_edges);  // skipping it must actually skip work

  const EngineRun fused = at_threads(1, [&] {
    return run_engine_sweeps_chunked(g, items, source, 3, 0, dead_lo, dead_hi);
  });
  EXPECT_GT(fused.stats.warp_steps, 0u);
  EXPECT_GT(fused.stats.atomic_commits, 0u);

  // The exclusion window must have engaged: an unrestricted run charges
  // more warp steps than one with a whole block gated out.
  const EngineRun unrestricted = at_threads(
      1, [&] { return run_engine_sweeps_chunked(g, items, source, 3, 0, 0, 0); });
  EXPECT_GT(unrestricted.stats.warp_steps, fused.stats.warp_steps);

  const EngineRun two_phase = at_threads(1, [&] {
    return run_engine_sweeps_chunked(g, items, source, 3, 1, dead_lo, dead_hi);
  });
  const EngineRun sharded = at_threads(8, [&] {
    return run_engine_sweeps_chunked(g, items, source, 3, 8, dead_lo, dead_hi);
  });
  EXPECT_EQ(two_phase.stats, fused.stats) << "two-phase 1-chunk vs fused";
  EXPECT_EQ(sharded.stats, fused.stats) << "sharded 8-chunk vs fused";
  ASSERT_EQ(two_phase.dist.size(), fused.dist.size());
  ASSERT_EQ(sharded.dist.size(), fused.dist.size());
  EXPECT_EQ(std::memcmp(two_phase.dist.data(), fused.dist.data(),
                        fused.dist.size() * sizeof(double)),
            0)
      << "two-phase attribute bits differ from fused";
  EXPECT_EQ(std::memcmp(sharded.dist.data(), fused.dist.data(),
                        fused.dist.size() * sizeof(double)),
            0)
      << "sharded attribute bits differ from fused";
}

// --- algorithm runners -----------------------------------------------

/// Full runner outputs (attr + stats + modeled seconds) must be
/// bit-identical at every thread count. BC additionally exercises the
/// source-parallel fork/absorb path.
void expect_run_identical(core::Algorithm alg, const Csr& graph,
                          const core::RunConfig& rc) {
  const core::RunOutput ref =
      at_threads(1, [&] { return core::run_algorithm(alg, graph, rc); });
  for (int t : {2, 8}) {
    const core::RunOutput got =
        at_threads(t, [&] { return core::run_algorithm(alg, graph, rc); });
    EXPECT_EQ(got.stats, ref.stats)
        << core::algorithm_name(alg) << " threads=" << t;
    EXPECT_EQ(got.sim_seconds, ref.sim_seconds)
        << core::algorithm_name(alg) << " threads=" << t;
    EXPECT_EQ(got.iterations, ref.iterations)
        << core::algorithm_name(alg) << " threads=" << t;
    ASSERT_EQ(got.attr.size(), ref.attr.size());
    if (!ref.attr.empty()) {
      EXPECT_EQ(std::memcmp(got.attr.data(), ref.attr.data(),
                            got.attr.size() * sizeof(double)),
                0)
          << core::algorithm_name(alg) << " threads=" << t
          << ": attribute bits differ";
    }
    EXPECT_EQ(got.scalar, ref.scalar)
        << core::algorithm_name(alg) << " threads=" << t;
  }
}

TEST(RunnerDeterminism, SsspBitIdenticalAcrossThreadCounts) {
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 21);
  core::RunConfig rc;
  rc.seed = 21;
  expect_run_identical(core::Algorithm::SSSP, g, rc);
}

TEST(RunnerDeterminism, PageRankBitIdenticalAcrossThreadCounts) {
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 21);
  core::RunConfig rc;
  rc.seed = 21;
  expect_run_identical(core::Algorithm::PR, g, rc);
}

TEST(RunnerDeterminism, BcSourceParallelBitIdentical) {
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 21);
  core::RunConfig rc;
  rc.seed = 21;
  rc.bc_sample_count = 5;  // > 1 source engages the parallel source loop
  expect_run_identical(core::Algorithm::BC, g, rc);
}

TEST(RunnerDeterminism, BcTraceMatchesSerialCumulativeStats) {
  // The per-iteration trace is rebuilt by absorbing fork stats in source
  // order; it must equal the serial engine's cumulative trace exactly.
  const Csr g = make_preset(GraphPreset::Rmat26, 10, 33);
  core::RunConfig rc;
  rc.seed = 33;
  rc.bc_sample_count = 4;
  rc.collect_trace = true;
  const core::RunOutput ref =
      at_threads(1, [&] { return core::run_algorithm(core::Algorithm::BC, g, rc); });
  ASSERT_EQ(ref.trace.size(), std::size_t{4});
  for (int t : {2, 8}) {
    const core::RunOutput got = at_threads(
        t, [&] { return core::run_algorithm(core::Algorithm::BC, g, rc); });
    ASSERT_EQ(got.trace.size(), ref.trace.size()) << "threads=" << t;
    for (std::size_t i = 0; i < ref.trace.size(); ++i) {
      EXPECT_EQ(got.trace[i].iteration, ref.trace[i].iteration);
      EXPECT_EQ(got.trace[i].stats, ref.trace[i].stats)
          << "threads=" << t << " trace point " << i;
    }
  }
}

// --- pinned runner goldens -------------------------------------------

/// FNV-1a over 64-bit words.
struct Fnv64 {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((x >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
};

/// Everything a runner reports, bit for bit: all 12 KernelStats counters,
/// the simulated seconds, the scalar, every attribute and the iteration
/// count.
void digest_run(Fnv64& f, const core::RunOutput& out) {
  const sim::KernelStats& s = out.stats;
  for (const std::uint64_t c :
       {s.sweeps, s.warp_steps, s.lane_slots, s.active_lanes,
        s.edge_transactions, s.attr_transactions, s.attr_ideal_transactions,
        s.shared_accesses, s.bank_conflicts, s.atomic_commits,
        s.atomic_conflicts, s.aux_ops}) {
    f.add(c);
  }
  f.add(out.sim_seconds);
  f.add(out.scalar);
  f.add(static_cast<std::uint64_t>(out.attr.size()));
  for (const double a : out.attr) f.add(a);
  f.add(static_cast<std::uint64_t>(out.iterations));
}

/// One digest per (graph, technique, baseline): the five algorithms run
/// in paper row order on the technique's transformed graph ("exact" =
/// Technique::None, the original graph).
struct GoldenCell {
  GraphPreset preset;
  std::uint32_t scale;
  Technique technique;
  baselines::BaselineId baseline;
  std::uint64_t digest;
};

// Recorded from the engine that visited every lane slot at every warp
// step, before the live-lane-mask walk replaced it: the walk must not
// change any runner output. The divergence transform adds no edges to
// this small road lattice, so its rows equal the exact ones.
constexpr GoldenCell kRunnerGoldens[] = {
    {GraphPreset::Rmat26, 11, Technique::None,
     baselines::BaselineId::TopologyDriven, 0xa0c4a5adf1dbc0daull},
    {GraphPreset::Rmat26, 11, Technique::None,
     baselines::BaselineId::TigrLike, 0x816ced153220cf87ull},
    {GraphPreset::Rmat26, 11, Technique::None,
     baselines::BaselineId::GunrockLike, 0xb14302521ca2a21bull},
    {GraphPreset::Rmat26, 11, Technique::Coalescing,
     baselines::BaselineId::TopologyDriven, 0x8ad80148b7b99f27ull},
    {GraphPreset::Rmat26, 11, Technique::Coalescing,
     baselines::BaselineId::TigrLike, 0xe1800894cd7880abull},
    {GraphPreset::Rmat26, 11, Technique::Coalescing,
     baselines::BaselineId::GunrockLike, 0xe5b1e61c92ea54d2ull},
    {GraphPreset::Rmat26, 11, Technique::Latency,
     baselines::BaselineId::TopologyDriven, 0x1b7ae6e2e2aaba6cull},
    {GraphPreset::Rmat26, 11, Technique::Latency,
     baselines::BaselineId::TigrLike, 0x209d2c915c3c2759ull},
    {GraphPreset::Rmat26, 11, Technique::Latency,
     baselines::BaselineId::GunrockLike, 0xf19e651a7767a500ull},
    {GraphPreset::Rmat26, 11, Technique::Divergence,
     baselines::BaselineId::TopologyDriven, 0x11d329298820bddaull},
    {GraphPreset::Rmat26, 11, Technique::Divergence,
     baselines::BaselineId::TigrLike, 0xefbc3d76d46324ccull},
    {GraphPreset::Rmat26, 11, Technique::Divergence,
     baselines::BaselineId::GunrockLike, 0xe24b8d97306cd9efull},
    {GraphPreset::UsaRoad, 10, Technique::None,
     baselines::BaselineId::TopologyDriven, 0x65daa5f2d174e1b1ull},
    {GraphPreset::UsaRoad, 10, Technique::None,
     baselines::BaselineId::TigrLike, 0x5168f9654c522e77ull},
    {GraphPreset::UsaRoad, 10, Technique::None,
     baselines::BaselineId::GunrockLike, 0x89f3c02cb2aa71f4ull},
    {GraphPreset::UsaRoad, 10, Technique::Coalescing,
     baselines::BaselineId::TopologyDriven, 0xf5ed15e7a4b0363eull},
    {GraphPreset::UsaRoad, 10, Technique::Coalescing,
     baselines::BaselineId::TigrLike, 0x77235d8cf96ca6b3ull},
    {GraphPreset::UsaRoad, 10, Technique::Coalescing,
     baselines::BaselineId::GunrockLike, 0xb6395e05bc5397b8ull},
    {GraphPreset::UsaRoad, 10, Technique::Latency,
     baselines::BaselineId::TopologyDriven, 0xa4644081e488aa27ull},
    {GraphPreset::UsaRoad, 10, Technique::Latency,
     baselines::BaselineId::TigrLike, 0xfe1f9aa7b8362e17ull},
    {GraphPreset::UsaRoad, 10, Technique::Latency,
     baselines::BaselineId::GunrockLike, 0x86add36b69c765faull},
    {GraphPreset::UsaRoad, 10, Technique::Divergence,
     baselines::BaselineId::TopologyDriven, 0x65daa5f2d174e1b1ull},
    {GraphPreset::UsaRoad, 10, Technique::Divergence,
     baselines::BaselineId::TigrLike, 0x5168f9654c522e77ull},
    {GraphPreset::UsaRoad, 10, Technique::Divergence,
     baselines::BaselineId::GunrockLike, 0x89f3c02cb2aa71f4ull},
};

std::uint64_t runner_cell_digest(const Pipeline& pipeline,
                                 baselines::BaselineId baseline) {
  core::RunConfig rc;
  rc.baseline = baseline;
  rc.seed = 13;
  rc.sssp_source = pipeline.slot_of_node(busiest_node(pipeline.original()));
  rc.bc_sample_count = 3;
  Fnv64 f;
  for (const core::Algorithm alg : core::all_algorithms()) {
    digest_run(f, pipeline.run(alg, rc));
  }
  return f.h;
}

/// Runs every golden cell under the current chunking policy and compares.
void expect_runner_goldens(const char* policy) {
  for (const GoldenCell& cell : kRunnerGoldens) {
    core::ExperimentConfig config;
    config.technique = cell.technique;
    config = core::resolve_for_graph(config, cell.preset);
    Pipeline pipeline(make_preset(cell.preset, cell.scale, 13));
    core::apply_technique(pipeline, config);
    const std::uint64_t got = runner_cell_digest(pipeline, cell.baseline);
    EXPECT_EQ(got, cell.digest)
        << policy << ": " << preset_name(cell.preset) << " scale "
        << cell.scale << " " << technique_name(cell.technique) << " "
        << baselines::baseline_name(cell.baseline) << " digest 0x" << std::hex
        << got;
  }
}

TEST(RunnerGolden, AutomaticChunkPolicyMatchesPinnedDigests) {
  expect_runner_goldens("automatic");
}

TEST(RunnerGolden, ShardedPhaseAMatchesPinnedDigests) {
  // Eight forced chunks send every sweep with >= 8 warp blocks through
  // the sharded Phase A.
  const sim::ScopedGlobalSweepChunks forced(8);
  expect_runner_goldens("8 chunks");
}

// --- pinned per-iteration trace goldens --------------------------------

/// One digest over a run's whole trace: every TracePoint's iteration and
/// all 12 cumulative KernelStats counters, in trace order.
struct TraceGoldenCell {
  Technique technique;
  core::Algorithm alg;
  std::uint64_t digest;
};

// Baseline-I (topology-driven) SSSP, SCC and BC on rmat26 at scale 11,
// exact and under the latency technique: the cells whose gates change
// mid-run, so their per-block live masks change from one sweep to the
// next. RunnerGolden pins only run totals; these pin every iteration's
// cumulative stats. Recorded before per-block accounting was memoized.
constexpr TraceGoldenCell kTraceGoldens[] = {
    {Technique::None, core::Algorithm::SSSP, 0x76b91572a49b2433ull},
    {Technique::None, core::Algorithm::SCC, 0xbf5da87fc5669f09ull},
    {Technique::None, core::Algorithm::BC, 0xb056cfd2c2e2741eull},
    {Technique::Latency, core::Algorithm::SSSP, 0x0132c35299448253ull},
    {Technique::Latency, core::Algorithm::SCC, 0xa25c4d103aaaf4bcull},
    {Technique::Latency, core::Algorithm::BC, 0x371078c20c694f14ull},
};

std::uint64_t trace_digest(const core::RunOutput& out) {
  Fnv64 f;
  f.add(static_cast<std::uint64_t>(out.trace.size()));
  for (const core::TracePoint& p : out.trace) {
    const sim::KernelStats& s = p.stats;
    f.add(static_cast<std::uint64_t>(p.iteration));
    for (const std::uint64_t c :
         {s.sweeps, s.warp_steps, s.lane_slots, s.active_lanes,
          s.edge_transactions, s.attr_transactions, s.attr_ideal_transactions,
          s.shared_accesses, s.bank_conflicts, s.atomic_commits,
          s.atomic_conflicts, s.aux_ops}) {
      f.add(c);
    }
  }
  return f.h;
}

void expect_trace_goldens(const char* policy) {
  for (const Technique technique : {Technique::None, Technique::Latency}) {
    core::ExperimentConfig config;
    config.technique = technique;
    config = core::resolve_for_graph(config, GraphPreset::Rmat26);
    Pipeline pipeline(make_preset(GraphPreset::Rmat26, 11, 13));
    core::apply_technique(pipeline, config);
    core::RunConfig rc;
    rc.baseline = baselines::BaselineId::TopologyDriven;
    rc.seed = 13;
    rc.sssp_source = pipeline.slot_of_node(busiest_node(pipeline.original()));
    rc.bc_sample_count = 3;
    rc.collect_trace = true;
    for (const TraceGoldenCell& cell : kTraceGoldens) {
      if (cell.technique != technique) continue;
      const core::RunOutput out = pipeline.run(cell.alg, rc);
      ASSERT_GT(out.trace.size(), std::size_t{1})
          << core::algorithm_name(cell.alg);
      const std::uint64_t got = trace_digest(out);
      EXPECT_EQ(got, cell.digest)
          << policy << ": " << technique_name(technique) << " "
          << core::algorithm_name(cell.alg) << " trace digest 0x" << std::hex
          << got;
    }
  }
}

TEST(TraceGolden, AutomaticChunkPolicyMatchesPinnedDigests) {
  expect_trace_goldens("automatic");
}

TEST(TraceGolden, ShardedPhaseAMatchesPinnedDigests) {
  const sim::ScopedGlobalSweepChunks forced(8);
  expect_trace_goldens("8 chunks");
}

// --- host reference algorithms (cross-round ordering) ----------------

TEST(HostAlgorithmDeterminism, BellmanFordLongChainAcrossThreadCounts) {
  // Regression for the cross-round progress flag: a verdict lost between
  // rounds stops the relaxation early. A long chain with shortcuts makes
  // that visible, because it truncates the far distances instead of
  // perturbing them subtly. Bellman-Ford is serial, so the pin must not
  // matter either.
  constexpr NodeId kLen = 1500;
  GraphBuilder b(kLen);
  b.set_weighted(true);
  for (NodeId i = 0; i + 1 < kLen; ++i) {
    b.add_edge(i, i + 1, 1.0f + static_cast<float>(i % 7));
    // A few shortcuts so multiple candidates race for the same target.
    if (i % 97 == 0 && i + 5 < kLen) b.add_edge(i, i + 5, 40.0f);
  }
  const Csr g = b.build();
  const auto ref = sssp_dijkstra(g, 0);
  for (int t : kThreadCounts) {
    const auto got = at_threads(t, [&] { return sssp_bellman_ford(g, 0); });
    ASSERT_EQ(got.size(), ref.size()) << "threads=" << t;
    for (NodeId v = 0; v < kLen; ++v) {
      EXPECT_EQ(got[v], ref[v]) << "threads=" << t << " v=" << v;
    }
  }
}

TEST(HostAlgorithmDeterminism, PagerankAcrossThreadCounts) {
  // The dangling mass feeds every rank and the L1 delta feeds the
  // iteration count, so both sums must round identically at any team
  // size; rmat26 has dangling nodes, which is what exposes the fold.
  const Csr g = make_preset(GraphPreset::Rmat26, 11, 13);
  const PagerankResult ref = at_threads(1, [&] { return pagerank(g); });
  for (int t : kThreadCounts) {
    const PagerankResult got = at_threads(t, [&] { return pagerank(g); });
    EXPECT_EQ(got.iterations, ref.iterations) << "threads=" << t;
    ASSERT_EQ(got.rank.size(), ref.rank.size()) << "threads=" << t;
    EXPECT_EQ(std::memcmp(got.rank.data(), ref.rank.data(),
                          ref.rank.size() * sizeof(double)),
              0)
        << "threads=" << t << ": rank bits differ";
  }
}

// --- confluence ------------------------------------------------------

TEST(ConfluenceDeterminism, FiniteMeanMergeBitIdentical) {
  // Many replica groups with awkward values (denormal-adjacent sums,
  // infinities to exercise the finite filter).
  constexpr NodeId kSlots = 3000;
  transform::ReplicaMap map;
  map.group_of_slot.assign(kSlots, kInvalidNode);
  for (NodeId base = 0; base + 3 <= kSlots; base += 3) {
    const NodeId gid = static_cast<NodeId>(map.groups.size());
    map.groups.push_back({base, base + 1, base + 2});
    for (NodeId s = base; s < base + 3; ++s) map.group_of_slot[s] = gid;
  }
  std::vector<float> init(kSlots);
  for (NodeId s = 0; s < kSlots; ++s) {
    init[s] = (s % 97 == 0) ? std::numeric_limits<float>::infinity()
                            : 0.1f * static_cast<float>(s % 1013) - 17.3f;
  }
  std::vector<float> ref = init;
  const std::size_t ref_merges = at_threads(1, [&] {
    return transform::merge_replicas_finite_mean(map, std::span<float>(ref));
  });
  for (int t : {2, 8}) {
    std::vector<float> got = init;
    const std::size_t merges = at_threads(t, [&] {
      return transform::merge_replicas_finite_mean(map,
                                                   std::span<float>(got));
    });
    EXPECT_EQ(merges, ref_merges);
    // Bit-identical floats: per-group accumulation order is fixed.
    EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                          got.size() * sizeof(float)),
              0)
        << "threads=" << t;
  }
}

}  // namespace
}  // namespace graffix
