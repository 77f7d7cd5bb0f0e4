// Host reference algorithm tests: analytic results on small graphs and
// cross-validation between independent implementations (Dijkstra vs
// Bellman-Ford, Tarjan vs FW-BW, Kruskal vs Borůvka) on generated graphs.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "algorithms/bc.hpp"
#include "algorithms/mst.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/scc.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/steiner.hpp"
#include "gen/rmat.hpp"
#include "gen/road_grid.hpp"
#include "graph/builder.hpp"
#include "graph/properties.hpp"

namespace graffix {
namespace {

Csr weighted_diamond() {
  GraphBuilder b(4);
  b.set_weighted(true);
  b.add_edge(0, 1, 1.0f);
  b.add_edge(0, 2, 4.0f);
  b.add_edge(1, 3, 2.0f);
  b.add_edge(2, 3, 1.0f);
  return b.build();
}

Csr directed_cycle(NodeId n) {
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n);
  return b.build();
}

Csr small_rmat(std::uint32_t scale = 9) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  return generate_rmat(p);
}

TEST(ParallelBfs, MatchesSerialOnRmat) {
  Csr g = small_rmat();
  const auto levels = bfs_levels(g, 0);
  // Independent reference via Dijkstra on unit weights.
  GraphBuilder b(g.num_nodes());
  for (NodeId u = 0; u < g.num_slots(); ++u) {
    for (NodeId v : g.neighbors(u)) b.add_edge(u, v);
  }
  Csr unweighted = b.build();
  const auto dist = sssp_dijkstra(unweighted, 0);
  for (NodeId v = 0; v < g.num_slots(); ++v) {
    if (dist[v] == kInfWeight) {
      EXPECT_EQ(levels[v], kInvalidNode) << v;
    } else {
      EXPECT_EQ(static_cast<Weight>(levels[v]), dist[v]) << v;
    }
  }
}

TEST(Sssp, DijkstraOnDiamond) {
  const auto dist = sssp_dijkstra(weighted_diamond(), 0);
  EXPECT_FLOAT_EQ(dist[0], 0.0f);
  EXPECT_FLOAT_EQ(dist[1], 1.0f);
  EXPECT_FLOAT_EQ(dist[2], 4.0f);
  EXPECT_FLOAT_EQ(dist[3], 3.0f);  // 0->1->3
}

TEST(Sssp, UnreachableIsInfinite) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const auto dist = sssp_dijkstra(b.build(), 0);
  EXPECT_EQ(dist[2], kInfWeight);
}

TEST(Sssp, BellmanFordMatchesDijkstra) {
  Csr g = small_rmat();
  const auto d1 = sssp_dijkstra(g, 0);
  const auto d2 = sssp_bellman_ford(g, 0);
  for (NodeId v = 0; v < g.num_slots(); ++v) {
    if (d1[v] == kInfWeight) {
      EXPECT_EQ(d2[v], kInfWeight);
    } else {
      EXPECT_NEAR(d1[v], d2[v], 1e-3) << v;
    }
  }
}

TEST(Pagerank, SumsToOne) {
  Csr g = small_rmat();
  const auto result = pagerank(g);
  const double total =
      std::accumulate(result.rank.begin(), result.rank.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-6);
  EXPECT_GT(result.iterations, 1u);
}

TEST(Pagerank, UniformOnCycle) {
  Csr g = directed_cycle(8);
  const auto result = pagerank(g);
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_NEAR(result.rank[v], 1.0 / 8, 1e-9);
  }
}

TEST(Pagerank, HubOutranksLeaves) {
  // Star pointing at the center: center absorbs rank.
  GraphBuilder b(6);
  for (NodeId leaf = 1; leaf < 6; ++leaf) b.add_edge(leaf, 0);
  const auto result = pagerank(b.build());
  for (NodeId leaf = 1; leaf < 6; ++leaf) {
    EXPECT_GT(result.rank[0], result.rank[leaf]);
  }
}

TEST(Pagerank, DanglingMassRedistributed) {
  // 0 -> 1, 1 dangling; ranks must still sum to 1.
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const auto result = pagerank(b.build());
  EXPECT_NEAR(result.rank[0] + result.rank[1], 1.0, 1e-9);
  EXPECT_GT(result.rank[1], result.rank[0]);
}

TEST(Bc, PathCenterHasHighestCentrality) {
  // Undirected path 0-1-2-3-4: node 2 lies on the most shortest paths.
  GraphBuilder b(5);
  for (NodeId i = 0; i + 1 < 5; ++i) {
    b.add_edge(i, i + 1);
    b.add_edge(i + 1, i);
  }
  Csr g = b.build();
  const auto bc = betweenness_centrality_all(g);
  EXPECT_GT(bc[2], bc[1]);
  EXPECT_GT(bc[1], bc[0]);
  // Analytic: on a 5-path, bc(center) = 2 * (2*2) = ... directed both
  // ways counts each ordered pair once: center lies on 2x2x2 = 8 ordered
  // pairs' shortest paths.
  EXPECT_DOUBLE_EQ(bc[2], 8.0);
}

TEST(Bc, StarCenterDominates) {
  GraphBuilder b(6);
  for (NodeId leaf = 1; leaf < 6; ++leaf) {
    b.add_edge(0, leaf);
    b.add_edge(leaf, 0);
  }
  const auto bc = betweenness_centrality_all(b.build());
  EXPECT_GT(bc[0], 0.0);
  for (NodeId leaf = 1; leaf < 6; ++leaf) EXPECT_DOUBLE_EQ(bc[leaf], 0.0);
  // Center lies on all 5*4 = 20 leaf-to-leaf shortest paths.
  EXPECT_DOUBLE_EQ(bc[0], 20.0);
}

TEST(Bc, SampledSourcesAreDeterministic) {
  Csr g = small_rmat();
  const auto s1 = sample_bc_sources(g, 10, 7);
  const auto s2 = sample_bc_sources(g, 10, 7);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 10u);
  const auto s3 = sample_bc_sources(g, 10, 8);
  EXPECT_NE(s1, s3);
}

TEST(Scc, CycleIsOneComponent) {
  const auto result = scc_tarjan(directed_cycle(6));
  EXPECT_EQ(result.count, 1u);
}

TEST(Scc, DagIsAllSingletons) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  const auto result = scc_tarjan(b.build());
  EXPECT_EQ(result.count, 4u);
}

TEST(Scc, TwoCyclesBridged) {
  GraphBuilder b(6);
  // Cycle {0,1,2}, cycle {3,4,5}, bridge 2->3.
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(5, 3);
  b.add_edge(2, 3);
  const auto result = scc_tarjan(b.build());
  EXPECT_EQ(result.count, 2u);
  EXPECT_EQ(result.component[0], result.component[1]);
  EXPECT_NE(result.component[0], result.component[3]);
}

TEST(Scc, FwBwMatchesTarjanOnRmat) {
  Csr g = small_rmat(8);
  const auto tarjan = scc_tarjan(g);
  const auto fwbw = scc_fw_bw(g);
  EXPECT_EQ(fwbw.count, tarjan.count);
}

TEST(Scc, FwBwMatchesTarjanOnRoad) {
  RoadGridParams p;
  p.width = 12;
  p.height = 12;
  Csr g = generate_road_grid(p);
  EXPECT_EQ(scc_fw_bw(g).count, scc_tarjan(g).count);
}

TEST(Mst, TriangleChoosesTwoCheapest) {
  GraphBuilder b(3);
  b.set_weighted(true);
  b.add_edge(0, 1, 1.0f);
  b.add_edge(1, 2, 2.0f);
  b.add_edge(2, 0, 10.0f);
  const auto result = mst_kruskal(b.build());
  EXPECT_DOUBLE_EQ(result.total_weight, 3.0);
  EXPECT_EQ(result.edges_in_forest, 2u);
  EXPECT_EQ(result.components, 1u);
}

TEST(Mst, ForestOnDisconnectedGraph) {
  GraphBuilder b(4);
  b.set_weighted(true);
  b.add_edge(0, 1, 1.0f);
  b.add_edge(2, 3, 2.0f);
  const auto result = mst_kruskal(b.build());
  EXPECT_DOUBLE_EQ(result.total_weight, 3.0);
  EXPECT_EQ(result.components, 2u);
}

TEST(Mst, BoruvkaMatchesKruskalOnRmat) {
  Csr g = small_rmat(9);
  const auto kruskal = mst_kruskal(g);
  const auto boruvka = mst_boruvka(g);
  EXPECT_NEAR(kruskal.total_weight, boruvka.total_weight,
              1e-6 * std::max(1.0, kruskal.total_weight));
  EXPECT_EQ(kruskal.edges_in_forest, boruvka.edges_in_forest);
}

TEST(Mst, BoruvkaMatchesKruskalOnRoad) {
  RoadGridParams p;
  p.width = 16;
  p.height = 16;
  Csr g = generate_road_grid(p);
  const auto kruskal = mst_kruskal(g);
  const auto boruvka = mst_boruvka(g);
  EXPECT_NEAR(kruskal.total_weight, boruvka.total_weight,
              1e-6 * std::max(1.0, kruskal.total_weight));
}

TEST(Steiner, PathTerminals) {
  // Weighted path 0-1-2-3-4, terminals {0, 4}: cost = path length.
  GraphBuilder b(5);
  b.set_weighted(true);
  for (NodeId i = 0; i + 1 < 5; ++i) {
    b.add_edge(i, i + 1, 2.0f);
    b.add_edge(i + 1, i, 2.0f);
  }
  Csr g = b.build();
  const std::vector<NodeId> terminals{0, 4};
  const auto result = steiner_2approx(g, terminals);
  EXPECT_TRUE(result.connected);
  EXPECT_DOUBLE_EQ(result.cost, 8.0);
  ASSERT_EQ(result.tree_edges.size(), 1u);
}

TEST(Steiner, StarTerminals) {
  // Star with center 0 and leaves 1..4 (unit edges), terminals = leaves:
  // KMB cost = MST of leaf-pairwise distances (all 2) = 3 edges x 2 = 6;
  // optimal Steiner tree is 4 (using the center), ratio 1.5 <= 2.
  GraphBuilder b(5);
  b.set_weighted(true);
  for (NodeId leaf = 1; leaf < 5; ++leaf) {
    b.add_edge(0, leaf, 1.0f);
    b.add_edge(leaf, 0, 1.0f);
  }
  Csr g = b.build();
  const std::vector<NodeId> terminals{1, 2, 3, 4};
  const auto result = steiner_2approx(g, terminals);
  EXPECT_TRUE(result.connected);
  EXPECT_DOUBLE_EQ(result.cost, 6.0);
  EXPECT_LE(result.cost, 2.0 * 4.0);  // the 2-approx guarantee
}

TEST(Steiner, DisconnectedTerminalsReported) {
  GraphBuilder b(4);
  b.set_weighted(true);
  b.add_edge(0, 1, 1.0f);
  b.add_edge(1, 0, 1.0f);
  Csr g = b.build();
  const std::vector<NodeId> terminals{0, 3};
  const auto result = steiner_2approx(g, terminals);
  EXPECT_FALSE(result.connected);
}

TEST(Steiner, TrivialTerminalSets) {
  Csr g = weighted_diamond();
  EXPECT_TRUE(steiner_2approx(g, std::vector<NodeId>{2}).connected);
  EXPECT_DOUBLE_EQ(steiner_2approx(g, std::vector<NodeId>{2}).cost, 0.0);
  EXPECT_FALSE(steiner_2approx(g, std::vector<NodeId>{}).connected);
}

TEST(Steiner, CustomOracleIsUsed) {
  // An oracle that pretends everything is at distance 1.
  const std::vector<NodeId> terminals{0, 1, 2};
  std::size_t calls = 0;
  const auto result = steiner_2approx(
      terminals, [&](NodeId) {
        ++calls;
        return std::vector<double>(3, 1.0);
      });
  EXPECT_EQ(calls, 3u);
  EXPECT_TRUE(result.connected);
  EXPECT_DOUBLE_EQ(result.cost, 2.0);
}

}  // namespace
}  // namespace graffix
