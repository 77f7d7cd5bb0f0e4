// SIMT engine tests: the substitution substrate's core contracts —
// transaction counting for known access patterns, divergence accounting,
// shared-memory residency, edge-load modes, atomic conflicts, and cost-
// model monotonicity.
#include <gtest/gtest.h>

#include <numeric>

#include "graph/builder.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace graffix::sim {
namespace {

/// n sources, each with one edge to a chosen destination.
Csr single_edge_graph(NodeId n, const std::vector<NodeId>& dsts) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < dsts.size(); ++u) b.add_edge(u, dsts[u]);
  return b.build();
}

SimConfig test_config() {
  SimConfig cfg;
  cfg.warp_size = 32;
  cfg.transaction_bytes = 128;  // 32 x 4-byte attrs
  return cfg;
}

TEST(Engine, PerfectlyCoalescedGatherIsOneTransaction) {
  // 32 sources; source i points at node 32 + i: attribute gather touches
  // one contiguous 128-byte segment.
  std::vector<NodeId> dsts(32);
  std::iota(dsts.begin(), dsts.end(), NodeId{32});
  Csr g = single_edge_graph(64, dsts);
  Engine engine(g, test_config());
  KernelStats stats;
  auto items = items_all_vertices(g);
  items.resize(32);  // only the 32 sources
  engine.sweep(items, {}, [](NodeId, NodeId, Weight) { return false; }, stats);
  EXPECT_EQ(stats.warp_steps, 1u);
  EXPECT_EQ(stats.attr_transactions, 1u);
  EXPECT_EQ(stats.attr_ideal_transactions, 1u);
  EXPECT_DOUBLE_EQ(stats.coalescing_efficiency(), 1.0);
}

TEST(Engine, FullyScatteredGatherIsWarpSizeTransactions) {
  // Destinations 128 apart in id space -> each in its own segment.
  std::vector<NodeId> dsts(32);
  for (NodeId i = 0; i < 32; ++i) dsts[i] = 64 + i * 32;  // 32 ids * 4B = 128B
  Csr g = single_edge_graph(64 + 32 * 32, dsts);
  Engine engine(g, test_config());
  KernelStats stats;
  auto items = items_all_vertices(g);
  items.resize(32);
  engine.sweep(items, {}, [](NodeId, NodeId, Weight) { return false; }, stats);
  EXPECT_EQ(stats.attr_transactions, 32u);
  EXPECT_EQ(stats.attr_ideal_transactions, 1u);
  EXPECT_NEAR(stats.coalescing_efficiency(), 1.0 / 32.0, 1e-12);
}

TEST(Engine, UniformDegreesHaveFullSimdEfficiency) {
  GraphBuilder b(64);
  for (NodeId u = 0; u < 32; ++u) {
    b.add_edge(u, 32 + u);
    b.add_edge(u, 33 + u >= 64 ? 32 : 33 + u);
  }
  Csr g = b.build();
  Engine engine(g, test_config());
  KernelStats stats;
  auto items = items_all_vertices(g);
  items.resize(32);
  engine.sweep(items, {}, [](NodeId, NodeId, Weight) { return false; }, stats);
  EXPECT_DOUBLE_EQ(stats.simd_efficiency(), 1.0);
  EXPECT_EQ(stats.warp_steps, 2u);
}

TEST(Engine, SkewedDegreesWasteLanes) {
  // One hub with 32 edges among 31 degree-1 nodes: steps = 32, useful
  // lanes = 32 + 31.
  GraphBuilder b(128);
  for (NodeId j = 0; j < 32; ++j) b.add_edge(0, 64 + j);
  for (NodeId u = 1; u < 32; ++u) b.add_edge(u, 96 + u);
  Csr g = b.build();
  Engine engine(g, test_config());
  KernelStats stats;
  auto items = items_all_vertices(g);
  items.resize(32);
  engine.sweep(items, {}, [](NodeId, NodeId, Weight) { return false; }, stats);
  EXPECT_EQ(stats.warp_steps, 32u);
  EXPECT_EQ(stats.active_lanes, 32u + 31u);
  EXPECT_LT(stats.simd_efficiency(), 0.1);
}

TEST(Engine, IdealEdgeModeChargesOneEdgeTransactionPerStep) {
  std::vector<NodeId> dsts(32);
  for (NodeId i = 0; i < 32; ++i) dsts[i] = 32 + i;
  Csr g = single_edge_graph(64, dsts);
  Engine engine(g, test_config());
  auto items = items_all_vertices(g);
  items.resize(32);

  KernelStats csr_stats;
  SweepOptions csr_opts;
  csr_opts.edge_mode = EdgeLoadMode::Csr;
  engine.sweep(items, csr_opts, [](NodeId, NodeId, Weight) { return false; },
               csr_stats);

  KernelStats ideal_stats;
  SweepOptions ideal_opts;
  ideal_opts.edge_mode = EdgeLoadMode::IdealWarpPacked;
  engine.sweep(items, ideal_opts, [](NodeId, NodeId, Weight) { return false; },
               ideal_stats);

  EXPECT_EQ(ideal_stats.edge_transactions, 1u);
  EXPECT_GE(csr_stats.edge_transactions, 1u);
}

TEST(Engine, SharedAttrSpaceCountsAllAsShared) {
  std::vector<NodeId> dsts{1, 2, 3};
  Csr g = single_edge_graph(8, dsts);
  Engine engine(g, test_config());
  auto items = items_all_vertices(g);
  SweepOptions opts;
  opts.attr_space = AttrSpace::Shared;
  KernelStats stats;
  engine.sweep(items, opts, [](NodeId, NodeId, Weight) { return false; },
               stats);
  EXPECT_EQ(stats.attr_transactions, 0u);
  EXPECT_EQ(stats.shared_accesses, 3u);
}

TEST(Engine, CommitsAndConflictsAreCounted) {
  // Two sources writing to the same destination in the same step.
  std::vector<NodeId> dsts{5, 5};
  Csr g = single_edge_graph(8, dsts);
  Engine engine(g, test_config());
  auto items = items_all_vertices(g);
  KernelStats stats;
  engine.sweep(items, {}, [](NodeId, NodeId, Weight) { return true; }, stats);
  EXPECT_EQ(stats.atomic_commits, 2u);
  EXPECT_EQ(stats.atomic_conflicts, 1u);
}

TEST(Engine, FunctorSeesEdgeWeights) {
  GraphBuilder b(4);
  b.set_weighted(true);
  b.add_edge(0, 1, 7.5f);
  Csr g = b.build();
  Engine engine(g, test_config());
  auto items = items_all_vertices(g);
  SweepOptions opts;
  opts.weighted = true;
  Weight seen = 0;
  KernelStats stats;
  engine.sweep(
      items, opts,
      [&](NodeId u, NodeId v, Weight w) {
        EXPECT_EQ(u, 0u);
        EXPECT_EQ(v, 1u);
        seen = w;
        return false;
      },
      stats);
  EXPECT_FLOAT_EQ(seen, 7.5f);
}

TEST(Engine, WeightedDoublesEdgeTraffic) {
  GraphBuilder b(4);
  b.set_weighted(true);
  b.add_edge(0, 1, 1.0f);
  Csr g = b.build();
  Engine engine(g, test_config());
  auto items = items_all_vertices(g);
  KernelStats unweighted, weighted;
  SweepOptions wopts;
  wopts.weighted = true;
  engine.sweep(items, {}, [](NodeId, NodeId, Weight) { return false; },
               unweighted);
  engine.sweep(items, wopts, [](NodeId, NodeId, Weight) { return false; },
               weighted);
  EXPECT_EQ(weighted.edge_transactions, 2 * unweighted.edge_transactions);
}

TEST(Engine, ChargeUniformKernelIsCoalesced) {
  Csr g = single_edge_graph(8, {});
  Engine engine(g, test_config());
  KernelStats stats;
  engine.charge_uniform_kernel(64, 1.0, stats);
  EXPECT_EQ(stats.sweeps, 1u);
  EXPECT_EQ(stats.aux_ops, 64u);
  EXPECT_EQ(stats.attr_transactions, stats.attr_ideal_transactions);
}

TEST(Engine, ChargeUniformKernelRoundsUpPartialTransactions) {
  // Regression: +0.5 rounding charged ZERO transactions to any kernel
  // touching fewer than transaction_bytes/2 bytes. A kernel that touches
  // any bytes owes at least one transaction (ceil semantics).
  Csr g = single_edge_graph(8, {});
  Engine engine(g, test_config());
  KernelStats one_item;
  engine.charge_uniform_kernel(1, 1.0, one_item);  // 4 B of a 128 B segment
  EXPECT_EQ(one_item.attr_transactions, 1u);

  KernelStats partial;
  engine.charge_uniform_kernel(33, 1.0, partial);  // 132 B -> 2 segments
  EXPECT_EQ(partial.attr_transactions, 2u);
}

TEST(Engine, NoLaunchChargeWhenDisabled) {
  Csr g = single_edge_graph(8, {0});
  Engine engine(g, test_config());
  auto items = items_all_vertices(g);
  SweepOptions opts;
  opts.charge_launch = false;
  KernelStats stats;
  engine.sweep(items, opts, [](NodeId, NodeId, Weight) { return false; },
               stats);
  EXPECT_EQ(stats.sweeps, 0u);
}

TEST(Engine, GatedLanesAreIdleButOccupySlots) {
  // Two sources with one edge each; gate excludes source 1.
  std::vector<NodeId> dsts{4, 5};
  Csr g = single_edge_graph(8, dsts);
  Engine engine(g, test_config());
  auto items = items_all_vertices(g);
  items.resize(2);
  KernelStats stats;
  engine.sweep_gated(
      items, {}, [](NodeId u) { return u == 0; },
      [](NodeId u, NodeId, Weight) {
        EXPECT_EQ(u, 0u);  // gated-out lane must never reach the functor
        return false;
      },
      stats);
  EXPECT_EQ(stats.active_lanes, 1u);
  EXPECT_EQ(stats.warp_steps, 1u);      // the gated-in lane still runs
  EXPECT_EQ(stats.lane_slots, 32u);     // idle lanes occupy the warp
  EXPECT_EQ(stats.attr_transactions, 1u);
}

TEST(Engine, AllLanesGatedOutSkipsSteps) {
  std::vector<NodeId> dsts{4, 5};
  Csr g = single_edge_graph(8, dsts);
  Engine engine(g, test_config());
  auto items = items_all_vertices(g);
  items.resize(2);
  KernelStats stats;
  engine.sweep_gated(
      items, {}, [](NodeId) { return false; },
      [](NodeId, NodeId, Weight) { return false; }, stats);
  EXPECT_EQ(stats.warp_steps, 0u);
  EXPECT_EQ(stats.attr_transactions, 0u);
}

TEST(Engine, EdgeStreamHitsCacheWithinSector) {
  // One lane with 16 consecutive edges: the adjacency stream spans
  // 16 x 4B = 64B = 2 sectors of 32B, so only 2 edge transactions.
  GraphBuilder b(32);
  for (NodeId j = 0; j < 16; ++j) b.add_edge(0, 8 + j);
  Csr g = b.build();
  SimConfig cfg = test_config();
  cfg.transaction_bytes = 32;
  Engine engine(g, cfg);
  auto items = items_all_vertices(g);
  items.resize(1);
  KernelStats stats;
  engine.sweep(items, {}, [](NodeId, NodeId, Weight) { return false; }, stats);
  EXPECT_EQ(stats.edge_transactions, 2u);
  EXPECT_EQ(stats.warp_steps, 16u);
}

TEST(Engine, EdgesResidentSuppressesEdgeTraffic) {
  GraphBuilder b(8);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  Csr g = b.build();
  Engine engine(g, test_config());
  auto items = items_all_vertices(g);
  SweepOptions opts;
  opts.edges_resident = true;
  KernelStats stats;
  engine.sweep(items, opts, [](NodeId, NodeId, Weight) { return false; },
               stats);
  EXPECT_EQ(stats.edge_transactions, 0u);
  EXPECT_GT(stats.shared_accesses, 0u);
}

TEST(Engine, BankConflictsOnStridedSharedAccess) {
  // 4 sources whose destinations are 32 apart: all four hit bank 0 with
  // distinct words -> 3 serialized accesses.
  std::vector<NodeId> dsts{32, 64, 96, 128};
  GraphBuilder b(256);
  for (NodeId u = 0; u < 4; ++u) b.add_edge(u, dsts[u]);
  Csr g = b.build();
  Engine engine(g, test_config());
  auto items = items_all_vertices(g);
  items.resize(4);
  SweepOptions opts;
  opts.attr_space = AttrSpace::Shared;
  KernelStats stats;
  engine.sweep(items, opts, [](NodeId, NodeId, Weight) { return false; },
               stats);
  EXPECT_EQ(stats.shared_accesses, 4u);
  EXPECT_EQ(stats.bank_conflicts, 3u);
}

TEST(Engine, SameWordSharedAccessBroadcastsFree) {
  // All lanes read the same destination word: broadcast, no conflicts.
  std::vector<NodeId> dsts(8, 40);
  GraphBuilder b(64);
  for (NodeId u = 0; u < 8; ++u) b.add_edge(u, 40);
  Csr g = b.build();
  Engine engine(g, test_config());
  auto items = items_all_vertices(g);
  items.resize(8);
  SweepOptions opts;
  opts.attr_space = AttrSpace::Shared;
  KernelStats stats;
  engine.sweep(items, opts, [](NodeId, NodeId, Weight) { return false; },
               stats);
  EXPECT_EQ(stats.bank_conflicts, 0u);
}

TEST(Engine, DistinctBanksConflictFree) {
  // Destinations 33..40: consecutive words land in distinct banks.
  GraphBuilder b(64);
  for (NodeId u = 0; u < 8; ++u) b.add_edge(u, 33 + u);
  Csr g = b.build();
  Engine engine(g, test_config());
  auto items = items_all_vertices(g);
  items.resize(8);
  SweepOptions opts;
  opts.attr_space = AttrSpace::Shared;
  KernelStats stats;
  engine.sweep(items, opts, [](NodeId, NodeId, Weight) { return false; },
               stats);
  EXPECT_EQ(stats.bank_conflicts, 0u);
}

TEST(SweepScratch, BankResizeInvalidatesSegmentStamps) {
  // Regression: resizing one epoch-stamped table rewinds `epoch` to 0,
  // so the OTHER table's stale stamps must be cleared too — otherwise a
  // stamp left at e.g. 3 reads as valid again the moment the rewound
  // epoch climbs back to 3, and insert_attr_seg falsely reports "already
  // present" (undercounting attribute transactions).
  SweepScratch sc;
  sc.ensure(32, 32);
  sc.epoch = 3;  // a few warp steps into a sweep
  EXPECT_EQ(sc.insert_attr_seg(42), 1u);
  EXPECT_EQ(sc.insert_attr_seg(42), 0u);

  sc.ensure(32, 64);  // bank table resizes; segment table keeps its size
  EXPECT_EQ(sc.epoch, 0u);
  // A fresh sweep reaches epoch 3 again: segment 42 must be new again.
  sc.epoch = 3;
  EXPECT_EQ(sc.insert_attr_seg(42), 1u);
}

TEST(SweepScratch, SegmentResizeInvalidatesBankStamps) {
  // Mirror image: a segment-table resize (warp size change) rewinds the
  // epoch, so bank stamps must be cleared or a stale stamp would read as
  // a same-step bank hit (overcounting conflicts).
  SweepScratch sc;
  sc.ensure(32, 32);
  sc.epoch = 5;
  sc.bank_epoch[7] = 5;  // lane touched bank 7 this step
  sc.bank_word[7] = 99;

  sc.ensure(64, 32);  // segment table resizes; bank table keeps its size
  EXPECT_EQ(sc.epoch, 0u);
  for (const std::uint64_t stamp : sc.bank_epoch) EXPECT_EQ(stamp, 0u);
}

TEST(CostModel, BankConflictsCostCycles) {
  const SimConfig cfg = test_config();
  CostModel model(cfg);
  KernelStats clean, conflicted;
  clean.shared_accesses = conflicted.shared_accesses = 100;
  conflicted.bank_conflicts = 50;
  EXPECT_GT(model.cycles(conflicted, 64).total_cycles(),
            model.cycles(clean, 64).total_cycles());
}

TEST(CostModel, FewerTransactionsMeansFewerCycles) {
  const SimConfig cfg = test_config();
  CostModel model(cfg);
  KernelStats many, few;
  many.warp_steps = few.warp_steps = 100;
  many.attr_transactions = 1000;
  few.attr_transactions = 100;
  EXPECT_LT(model.cycles(few, 64).total_cycles(),
            model.cycles(many, 64).total_cycles());
}

TEST(CostModel, SharedAccessesAreCheaperThanGlobal) {
  const SimConfig cfg = test_config();
  CostModel model(cfg);
  KernelStats global_run, shared_run;
  global_run.attr_transactions = 1000;
  shared_run.shared_accesses = 1000;
  EXPECT_LT(model.cycles(shared_run, 64).total_cycles(),
            model.cycles(global_run, 64).total_cycles());
}

TEST(CostModel, HidingFactorSaturates) {
  const SimConfig cfg = test_config();
  CostModel model(cfg);
  EXPECT_DOUBLE_EQ(model.hiding_factor(1), 1.0);
  EXPECT_DOUBLE_EQ(model.hiding_factor(1e9), cfg.max_overlap);
  EXPECT_GT(model.hiding_factor(2.0 * cfg.warps_to_hide),
            model.hiding_factor(cfg.warps_to_hide));
}

TEST(CostModel, SecondsArePositiveAndScaleWithWork) {
  const SimConfig cfg = test_config();
  CostModel model(cfg);
  KernelStats small, large;
  small.warp_steps = 10;
  small.attr_transactions = 10;
  large.warp_steps = 1000;
  large.attr_transactions = 1000;
  EXPECT_GT(model.seconds(small, 32), 0.0);
  EXPECT_GT(model.seconds(large, 32), model.seconds(small, 32));
}

/// Invariants that must hold for any warp width.
class EngineWarpWidth : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EngineWarpWidth, LaneAccountingConsistent) {
  const std::uint32_t ws = GetParam();
  GraphBuilder b(256);
  Pcg32 rng(11);
  for (NodeId u = 0; u < 128; ++u) {
    const NodeId deg = rng.next_bounded(6);
    for (NodeId j = 0; j < deg; ++j) {
      b.add_edge(u, 128 + rng.next_bounded(128));
    }
  }
  Csr g = b.build();
  SimConfig cfg = test_config();
  cfg.warp_size = ws;
  Engine engine(g, cfg);
  auto items = items_all_vertices(g);
  KernelStats stats;
  std::uint64_t edges_seen = 0;
  engine.sweep(items, {},
               [&](NodeId, NodeId, Weight) {
                 ++edges_seen;
                 return false;
               },
               stats);
  // Every edge visited exactly once regardless of warp width.
  EXPECT_EQ(edges_seen, g.num_edges());
  EXPECT_EQ(stats.active_lanes, g.num_edges());
  // Lane slots are warp_size-granular and cover all active lanes.
  EXPECT_EQ(stats.lane_slots % ws, 0u);
  EXPECT_GE(stats.lane_slots, stats.active_lanes);
  // Transactions bounded by active lanes (each lane adds at most one
  // attr segment and one edge segment per step).
  EXPECT_LE(stats.attr_transactions, stats.active_lanes);
  EXPECT_LE(stats.edge_transactions, stats.active_lanes);
}

TEST_P(EngineWarpWidth, NarrowWarpsNeverLessEfficient) {
  // Skew hurts wide warps more: SIMD efficiency with warp width 4 must
  // be at least that of width 32 on a skewed degree layout.
  const std::uint32_t ws = GetParam();
  GraphBuilder b(512);
  for (NodeId j = 0; j < 64; ++j) b.add_edge(0, 64 + j);
  for (NodeId u = 1; u < 32; ++u) b.add_edge(u, 200 + u);
  Csr g = b.build();

  auto efficiency = [&](std::uint32_t width) {
    SimConfig cfg = test_config();
    cfg.warp_size = width;
    Engine engine(g, cfg);
    auto items = items_all_vertices(g);
    items.resize(32);
    KernelStats stats;
    engine.sweep(items, {}, [](NodeId, NodeId, Weight) { return false; },
                 stats);
    return stats.simd_efficiency();
  };
  EXPECT_GE(efficiency(4) + 1e-12, efficiency(ws * 2 > 64 ? 64 : ws * 2) -
                                       1e-12);
}

INSTANTIATE_TEST_SUITE_P(Widths, EngineWarpWidth,
                         ::testing::Values(4u, 8u, 16u, 32u, 64u));

/// Edge cases of the engine's per-step live-lane masks, at a narrow and
/// the widest warp (64 lanes fill the whole mask word).
class LaneMask : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  struct Run {
    KernelStats stats;
    std::uint64_t calls = 0;
  };

  /// One gated sweep through each path — fused and two-phase — which
  /// must agree on every counter and functor call.
  template <typename Gate, typename Commits>
  Run sweep_every_path(const Csr& g, Gate gate, Commits commits) {
    SimConfig cfg = test_config();
    cfg.warp_size = GetParam();
    const auto items = items_all_vertices(g);
    auto run = [&](std::size_t chunks) {
      Engine engine(g, cfg);
      const ScopedSweepChunks forced(engine, chunks);
      Run r;
      engine.sweep_gated(
          items, SweepOptions{}, gate,
          [&](NodeId u, NodeId v, Weight) {
            ++r.calls;
            return commits(u, v);
          },
          r.stats);
      return r;
    };
    const Run fused = run(0);
    const Run two_phase = run(1);
    EXPECT_EQ(two_phase.stats, fused.stats);
    EXPECT_EQ(two_phase.calls, fused.calls);
    return fused;
  }
};

TEST_P(LaneMask, CommitConflictsWithEarlierNonCommittingLane) {
  // Lanes 1 and 2 (one edge each, so step 0 is their last) and lane
  // ws-2 all write node d at step 0; only lane ws-2 commits. Its
  // conflict counts once, even though two earlier lanes match and
  // neither of them committed. Every other lane writes its own node.
  const std::uint32_t ws = GetParam();
  const NodeId d = ws;
  GraphBuilder b(2 * ws + 1);
  for (NodeId u = 0; u < ws; ++u) {
    const bool shares = u == 1 || u == 2 || u == ws - 2;
    b.add_edge(u, shares ? d : ws + 1 + u);
  }
  b.add_edge(ws - 2, ws + 1 + ws - 2);  // a second step for lane ws-2
  const Csr g = b.build();
  const Run r = sweep_every_path(
      g, [](NodeId) { return true; },
      [&](NodeId u, NodeId v) { return u == ws - 2 && v == d; });
  EXPECT_EQ(r.stats.atomic_commits, 1u);
  EXPECT_EQ(r.stats.atomic_conflicts, 1u);
  EXPECT_EQ(r.stats.warp_steps, 2u);
  EXPECT_EQ(r.stats.active_lanes, ws + 1);
  EXPECT_EQ(r.calls, ws + 1);
}

TEST_P(LaneMask, FinishedLaneNeverConflictsLater) {
  // Lane 0 writes node d at step 0 and is then done; lane ws-1 writes x
  // at step 0 and d at step 1. Lane 0's destination from its last step
  // is stale at step 1 and must not conflict with lane ws-1's commit.
  const std::uint32_t ws = GetParam();
  const NodeId x = ws + 1;
  const NodeId d = ws + 2;
  GraphBuilder b(2 * ws);
  b.add_edge(0, d);
  b.add_edge(ws - 1, x);
  b.add_edge(ws - 1, d);
  const Csr g = b.build();
  const Run r = sweep_every_path(g, [](NodeId) { return true; },
                                 [](NodeId, NodeId) { return true; });
  EXPECT_EQ(r.stats.atomic_commits, 3u);
  EXPECT_EQ(r.stats.atomic_conflicts, 0u);
  EXPECT_EQ(r.stats.warp_steps, 2u);
  EXPECT_EQ(r.stats.active_lanes, 3u);
}

TEST_P(LaneMask, GatedInZeroLengthItemsAddNoWork) {
  // Block 0: every lane is gated in, but only lane ws-1 has edges (two).
  // Blocks 1 and 2: gated in, all zero-length. Only block 0's two steps
  // are charged, and only lane ws-1 is ever active.
  const std::uint32_t ws = GetParam();
  GraphBuilder b(3 * ws);
  b.add_edge(ws - 1, 2 * ws);
  b.add_edge(ws - 1, 2 * ws + 1);
  const Csr g = b.build();
  const Run r = sweep_every_path(g, [](NodeId) { return true; },
                                 [](NodeId, NodeId) { return true; });
  EXPECT_EQ(r.stats.warp_steps, 2u);
  EXPECT_EQ(r.stats.lane_slots, 2u * ws);
  EXPECT_EQ(r.stats.active_lanes, 2u);
  EXPECT_EQ(r.stats.atomic_commits, 2u);
  EXPECT_EQ(r.calls, 2u);
  // Gating the zero-length lanes out instead changes nothing.
  const Run gated = sweep_every_path(
      g, [&](NodeId u) { return u == ws - 1; },
      [](NodeId, NodeId) { return true; });
  EXPECT_EQ(gated.stats, r.stats);
}

INSTANTIATE_TEST_SUITE_P(Widths, LaneMask, ::testing::Values(8u, 64u));

TEST(Stats, Accumulation) {
  KernelStats a, b;
  a.warp_steps = 5;
  a.attr_transactions = 7;
  b.warp_steps = 3;
  b.attr_transactions = 2;
  a += b;
  EXPECT_EQ(a.warp_steps, 8u);
  EXPECT_EQ(a.attr_transactions, 9u);
}

TEST(Stats, EfficienciesDefaultToOne)
{
  KernelStats stats;
  EXPECT_DOUBLE_EQ(stats.simd_efficiency(), 1.0);
  EXPECT_DOUBLE_EQ(stats.coalescing_efficiency(), 1.0);
  EXPECT_DOUBLE_EQ(stats.shared_fraction(), 0.0);
}

}  // namespace
}  // namespace graffix::sim
