// Renumbering (Algorithm 2, step 1) tests: bijection onto non-hole
// slots, chunk-aligned level starts, hole-count bound, isomorphism of the
// applied renumbering, and the paper's Figure 1 -> Figure 2 walkthrough.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "algorithms/sssp.hpp"
#include "gen/rmat.hpp"
#include "gen/road_grid.hpp"
#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/validate.hpp"
#include "transform/renumber.hpp"
#include "transform_digest.hpp"

namespace graffix::transform {
namespace {

using testing::fnv;

/// A 20-node graph consistent with the paper's Figure 1/2 walkthrough:
/// BFS from 0 visits {0,4,5,6,7,8,13,14,15,17}; BFS from 1 covers
/// {1,10,12,18} and lowers 15, 17 to level 1; BFS from 2 covers
/// {2,11,19}; 3, 9 and 16 are their own roots. Final levels: {0,1,2,3,9,
/// 16} at level 0, everything else at level 1.
Csr figure1_graph() {
  GraphBuilder b(20);
  const std::pair<int, int> edges[] = {
      {0, 4},  {0, 5},  {0, 6},  {0, 7},  {0, 8},  {0, 13}, {0, 14},
      {1, 0},  {1, 10}, {1, 12}, {1, 15}, {1, 17}, {1, 18},
      {2, 0},  {2, 11}, {2, 19},
      {3, 19},
      {4, 5},  {6, 17}, {7, 15},
      {9, 8},  {16, 2},
  };
  for (auto [u, v] : edges) {
    b.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  return b.build();
}

Csr small_rmat(std::uint32_t scale = 9) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  return generate_rmat(p);
}

class RenumberParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RenumberParam, BijectionOntoNonHoleSlots) {
  const std::uint32_t k = GetParam();
  Csr g = small_rmat();
  const RenumberResult r = renumber_bfs_forest(g, k);
  ASSERT_EQ(r.slot_of_node.size(), g.num_nodes());
  std::set<NodeId> used;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const NodeId s = r.slot_of_node[v];
    ASSERT_LT(s, r.num_slots);
    ASSERT_TRUE(used.insert(s).second) << "slot " << s << " reused";
    ASSERT_EQ(r.node_of_slot[s], v);
  }
  // Slots not used are holes.
  for (NodeId s = 0; s < r.num_slots; ++s) {
    EXPECT_EQ(used.count(s) == 0, r.is_hole_slot(s));
  }
  EXPECT_EQ(r.hole_count(), r.num_slots - g.num_nodes());
}

TEST_P(RenumberParam, LevelStartsAreChunkMultiples) {
  const std::uint32_t k = GetParam();
  const RenumberResult r = renumber_bfs_forest(small_rmat(), k);
  for (NodeId start : r.level_start) {
    EXPECT_EQ(start % k, 0u) << "level start " << start;
  }
  EXPECT_EQ(r.num_slots % k, 0u);
}

TEST_P(RenumberParam, PerLevelHoleCountBelowK) {
  const std::uint32_t k = GetParam();
  const RenumberResult r = renumber_bfs_forest(small_rmat(), k);
  // Holes only pad the tail of each level: fewer than k per level.
  std::vector<NodeId> holes_per_level(r.num_levels(), 0);
  for (NodeId s = 0; s < r.num_slots; ++s) {
    if (r.is_hole_slot(s)) holes_per_level[r.level_of_slot[s]]++;
  }
  for (NodeId lvl = 0; lvl < r.num_levels(); ++lvl) {
    EXPECT_LT(holes_per_level[lvl], k) << "level " << lvl;
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, RenumberParam,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

TEST(Renumber, ChunkOneCreatesNoHoles) {
  const RenumberResult r = renumber_bfs_forest(small_rmat(), 1);
  EXPECT_EQ(r.hole_count(), 0u);
}

TEST(Renumber, LevelsAreMonotoneInSlots) {
  const RenumberResult r = renumber_bfs_forest(small_rmat(), 16);
  for (NodeId s = 1; s < r.num_slots; ++s) {
    EXPECT_GE(r.level_of_slot[s], r.level_of_slot[s - 1]);
  }
}

TEST(Renumber, HighestDegreeNodeGetsSlotZero) {
  Csr g = figure1_graph();
  const RenumberResult r = renumber_bfs_forest(g, 8);
  // Node 0 has out-degree 7, the maximum.
  EXPECT_EQ(r.slot_of_node[0], 0u);
  EXPECT_EQ(r.level_of_slot[0], 0u);
}

TEST(Renumber, Figure1LevelStructure) {
  // Paper walkthrough: vertices {0,1,2,3,9,16} end at level 0, all others
  // at level 1 (BFS from 1 lowers 15 and 17 to level 1).
  Csr g = figure1_graph();
  const RenumberResult r = renumber_bfs_forest(g, 8);
  ASSERT_EQ(r.num_levels(), 2u);
  const std::set<NodeId> level0{0, 1, 2, 3, 9, 16};
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const NodeId lvl = r.level_of_slot[r.slot_of_node[v]];
    EXPECT_EQ(lvl, level0.count(v) ? 0u : 1u) << "node " << v;
  }
  // 6 roots at level 0 with k=8 -> level 1 starts at slot 8; 14 level-1
  // nodes -> 22 ids, padded to 24 slots with holes at 6,7,22,23 (Fig. 3).
  ASSERT_EQ(r.level_start.size(), 2u);
  EXPECT_EQ(r.level_start[1], 8u);
  EXPECT_EQ(r.num_slots, 24u);
  EXPECT_TRUE(r.is_hole_slot(6));
  EXPECT_TRUE(r.is_hole_slot(7));
  EXPECT_TRUE(r.is_hole_slot(22));
  EXPECT_TRUE(r.is_hole_slot(23));
  EXPECT_EQ(r.hole_count(), 4u);
}

TEST(Renumber, AppliedGraphIsValidIsomorph) {
  Csr g = small_rmat();
  const RenumberResult r = renumber_bfs_forest(g, 16);
  Csr rg = apply_renumbering(g, r);
  EXPECT_TRUE(validate_graph(rg).ok);
  EXPECT_EQ(rg.num_nodes(), g.num_nodes());
  EXPECT_EQ(rg.num_edges(), g.num_edges());
  // Per-node degree preserved under the permutation.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(rg.degree(r.slot_of_node[v]), g.degree(v));
  }
}

TEST(Renumber, SsspInvariantUnderIsomorphism) {
  // Exactness property: distances on the renumbered graph equal the
  // original distances modulo the permutation.
  RmatParams p;
  p.scale = 8;
  p.edge_factor = 8;
  Csr g = generate_rmat(p);
  const RenumberResult r = renumber_bfs_forest(g, 16);
  Csr rg = apply_renumbering(g, r);

  const NodeId source = 0;
  const auto d_orig = sssp_dijkstra(g, source);
  const auto d_new = sssp_dijkstra(rg, r.slot_of_node[source]);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(d_orig[v], d_new[r.slot_of_node[v]]) << "node " << v;
  }
}

TEST(Renumber, WeightsFollowEdges) {
  GraphBuilder b(4);
  b.set_weighted(true);
  b.add_edge(0, 1, 5.0f);
  b.add_edge(0, 2, 6.0f);
  b.add_edge(1, 3, 7.0f);
  Csr g = b.build();
  const RenumberResult r = renumber_bfs_forest(g, 4);
  Csr rg = apply_renumbering(g, r);
  // Edge 1->3 must keep weight 7 wherever it landed.
  const NodeId s1 = r.slot_of_node[1];
  const NodeId s3 = r.slot_of_node[3];
  const auto nbrs = rg.neighbors(s1);
  const auto wts = rg.edge_weights(s1);
  bool found = false;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == s3) {
      EXPECT_FLOAT_EQ(wts[i], 7.0f);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Renumber, RoadGridLevelsAreBfsRings) {
  RoadGridParams p;
  p.width = 8;
  p.height = 8;
  p.removal_fraction = 0.0;
  p.diagonal_fraction = 0.0;
  Csr g = generate_road_grid(p);
  const RenumberResult r = renumber_bfs_forest(g, 16);
  // Lattice BFS from one root: many levels (ring structure).
  EXPECT_GE(r.num_levels(), 7u);
}

TEST(Renumber, SingleNodeGraph) {
  GraphBuilder b(1);
  Csr g = b.build();
  const RenumberResult r = renumber_bfs_forest(g, 16);
  EXPECT_EQ(r.num_slots, 16u);
  EXPECT_EQ(r.slot_of_node[0], 0u);
  EXPECT_EQ(r.hole_count(), 15u);
}

TEST(Renumber, GoldenNumberingOnManyRootGraphs) {
  // Level 0 of these graphs holds about a thousand roots, so the level-1
  // round-robin interleaves about a thousand parents of very unequal
  // degree. Digests of slot_of_node and level_start, recorded from the
  // loop that visited every (j < max degree, parent) pair of a level.
  struct Golden {
    GraphPreset preset;
    NodeId roots;
    NodeId num_slots;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {GraphPreset::Rmat26, 1144, 4144, 0x1a96248df7dff0a6ull},
      {GraphPreset::Twitter, 864, 4128, 0x38a51f57ef83338cull},
  };
  for (const Golden& gold : goldens) {
    const Csr g = make_preset(gold.preset, 12, 7);
    const RenumberResult r = renumber_bfs_forest(g, 16);
    std::uint64_t h = 1469598103934665603ull;
    for (NodeId s : r.slot_of_node) h = fnv(h, s);
    for (NodeId s : r.level_start) h = fnv(h, s);
    NodeId roots = 0;
    for (NodeId s = 0; s < r.num_slots; ++s) {
      if (r.level_of_slot[s] == 0 && !r.is_hole_slot(s)) ++roots;
    }
    EXPECT_EQ(roots, gold.roots) << preset_name(gold.preset);
    EXPECT_EQ(r.num_slots, gold.num_slots) << preset_name(gold.preset);
    EXPECT_EQ(h, gold.digest)
        << preset_name(gold.preset) << " digest 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace graffix::transform
