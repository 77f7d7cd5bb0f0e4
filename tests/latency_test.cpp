// Latency transform (§3) tests: edges are only added (never removed),
// the budget bounds insertions, cluster membership is disjoint and
// matches the resident index, inner iteration counts follow the
// 2x-diameter rule, and CC actually increases.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/experiment.hpp"
#include "diameter_oracle.hpp"
#include "gen/rmat.hpp"
#include "gen/road_grid.hpp"
#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/validate.hpp"
#include "transform/latency.hpp"
#include "transform_digest.hpp"

namespace graffix::transform {
namespace {

using testing::digest_csr;
using testing::double_bits;
using testing::fnv;

Csr clustered_graph() {
  // Two triangles joined by a path: high-CC anchors exist.
  GraphBuilder b(8);
  auto undirected = [&](NodeId u, NodeId v) {
    b.add_edge(u, v);
    b.add_edge(v, u);
  };
  undirected(0, 1);
  undirected(1, 2);
  undirected(2, 0);
  undirected(3, 4);
  undirected(4, 5);
  undirected(5, 3);
  undirected(2, 6);
  undirected(6, 7);
  undirected(7, 3);
  return b.build();
}

Csr small_rmat(std::uint32_t scale = 10) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  return generate_rmat(p);
}

LatencyKnobs knobs(double threshold = 0.5, double budget = 0.1) {
  LatencyKnobs k;
  k.cc_threshold = threshold;
  k.near_delta = 0.3;
  k.edge_budget_fraction = budget;
  return k;
}

TEST(Latency, OutputIsValid) {
  const auto result = latency_transform(small_rmat(), knobs());
  EXPECT_TRUE(validate_graph(result.graph).ok);
}

TEST(Latency, OnlyAddsEdges) {
  Csr g = small_rmat();
  const auto result = latency_transform(g, knobs());
  EXPECT_EQ(result.graph.num_edges(), g.num_edges() + result.edges_added);
  // Every original edge survives in place (extra arcs are appended).
  for (NodeId u = 0; u < g.num_slots(); ++u) {
    const auto before = g.neighbors(u);
    const auto after = result.graph.neighbors(u);
    ASSERT_GE(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(after[i], before[i]);
    }
  }
}

TEST(Latency, BudgetBoundsInsertions) {
  Csr g = small_rmat();
  const auto result = latency_transform(g, knobs(0.3, 0.02));
  EXPECT_LE(result.edges_added,
            static_cast<std::uint64_t>(0.02 * g.num_edges()) + 2);
}

TEST(Latency, ZeroBudgetAddsNothing) {
  Csr g = small_rmat();
  const auto result = latency_transform(g, knobs(0.5, 0.0));
  EXPECT_EQ(result.edges_added, 0u);
  EXPECT_EQ(result.graph.num_edges(), g.num_edges());
}

TEST(Latency, TriangleAnchorsBecomeClusters) {
  const auto result = latency_transform(clustered_graph(), knobs(0.9, 0.0));
  // Triangle members have CC 1.0 >= 0.9: at least one cluster forms.
  ASSERT_FALSE(result.schedule.empty());
  // A cluster anchored at a triangle node has the anchor + >= 2 members.
  EXPECT_GE(result.schedule.clusters[0].members.size(), 3u);
}

TEST(Latency, ClustersAreDisjointAndIndexed) {
  const auto result = latency_transform(small_rmat(), knobs(0.3));
  const auto& schedule = result.schedule;
  std::set<NodeId> seen;
  for (std::size_t c = 0; c < schedule.clusters.size(); ++c) {
    for (NodeId m : schedule.clusters[c].members) {
      EXPECT_TRUE(seen.insert(m).second) << "slot " << m << " in two clusters";
      ASSERT_LT(m, schedule.resident.size());
      EXPECT_EQ(schedule.resident[m], static_cast<NodeId>(c));
    }
  }
  for (NodeId s = 0; s < result.graph.num_slots(); ++s) {
    if (!seen.count(s)) {
      EXPECT_EQ(schedule.resident[s], kInvalidNode);
    }
  }
}

TEST(Latency, InnerIterationsFollowDiameterRule) {
  // Every cluster's t is max(1, t_diameter_factor x the diameter of the
  // subgraph the output graph induces on its members), by BFS: on the
  // triangles, and on boosted graphs whose clusters have both diameters.
  struct Case {
    Csr graph;
    LatencyKnobs knobs;
  };
  LatencyKnobs triangles = knobs(0.9, 0.0);
  LatencyKnobs boosted = knobs(0.3, 0.1);
  LatencyKnobs fractional = boosted;
  fractional.t_diameter_factor = 0.7;
  const Case cases[] = {{clustered_graph(), triangles},
                        {small_rmat(), boosted},
                        {small_rmat(), fractional},
                        {make_preset(GraphPreset::Twitter, 11, 3), boosted}};
  bool saw_diameter[3] = {false, false, false};
  for (const Case& c : cases) {
    const auto result = latency_transform(c.graph, c.knobs);
    ASSERT_FALSE(result.schedule.empty());
    for (const auto& cluster : result.schedule.clusters) {
      const NodeId diameter =
          graffix::testing::induced_subgraph_diameter(result.graph,
                                                      cluster.members);
      ASSERT_LE(diameter, 2u);
      saw_diameter[diameter] = true;
      EXPECT_EQ(cluster.inner_iterations,
                static_cast<std::uint32_t>(std::max(
                    1.0, c.knobs.t_diameter_factor *
                             static_cast<double>(diameter))));
    }
  }
  EXPECT_TRUE(saw_diameter[1]);
  EXPECT_TRUE(saw_diameter[2]);
}

TEST(Latency, ClusterSizeRespectsCap) {
  LatencyKnobs k = knobs(0.2, 0.1);
  k.cluster_cap = 8;
  const auto result = latency_transform(small_rmat(), k);
  for (const auto& cluster : result.schedule.clusters) {
    EXPECT_LE(cluster.members.size(), 8u);
  }
}

TEST(Latency, MeanCcDoesNotDecrease) {
  const auto result = latency_transform(small_rmat(), knobs(0.3, 0.1));
  EXPECT_GE(result.mean_cc_after, result.mean_cc_before - 1e-12);
}

TEST(Latency, EdgeInsertionRaisesCcWhenBudgetAllows) {
  // Near-threshold square: 4-cycle has CC 0; with a chord the corner CCs
  // rise. Use a wheel-ish graph where scenario 1 applies.
  GraphBuilder b(5);
  auto undirected = [&](NodeId u, NodeId v) {
    b.add_edge(u, v);
    b.add_edge(v, u);
  };
  // Center 0 adjacent to 1,2,3,4; one chord 1-2 -> CC(0) = 1/6 ~ 0.17.
  undirected(0, 1);
  undirected(0, 2);
  undirected(0, 3);
  undirected(0, 4);
  undirected(1, 2);
  LatencyKnobs k;
  k.cc_threshold = 0.3;
  k.near_delta = 0.2;   // 0.17 is in [0.1, 0.3): scenario 1 fires
  k.edge_budget_fraction = 1.0;
  const auto result = latency_transform(b.build(), k);
  EXPECT_GT(result.edges_added, 0u);
  EXPECT_GT(result.mean_cc_after, result.mean_cc_before);
}

TEST(Latency, WeightedNewEdgesUseTwoHopSum) {
  GraphBuilder b(4);
  b.set_weighted(true);
  auto undirected = [&](NodeId u, NodeId v, Weight w) {
    b.add_edge(u, v, w);
    b.add_edge(v, u, w);
  };
  // Anchor 0 with siblings 1,2,3; sibling pair (1,2) linked -> CC(0)=1/3.
  undirected(0, 1, 2.0f);
  undirected(0, 2, 3.0f);
  undirected(0, 3, 5.0f);
  undirected(1, 2, 1.0f);
  LatencyKnobs k;
  k.cc_threshold = 0.5;
  k.near_delta = 0.2;  // CC(0) = 1/3 in [0.3, 0.5)
  k.edge_budget_fraction = 1.0;
  const auto result = latency_transform(b.build(), k);
  ASSERT_GT(result.edges_added, 0u);
  // Any inserted arc's weight equals the sum of the two hops through the
  // anchor: pairs from {2,3,5} -> sums in {5,7,8}.
  const std::set<float> valid{5.0f, 7.0f, 8.0f};
  for (NodeId u = 0; u < result.graph.num_slots(); ++u) {
    const auto before_deg = u < 4 ? 2 + (u == 0 ? 1 : 0) : 0;
    (void)before_deg;
    const auto nbrs = result.graph.neighbors(u);
    const auto wts = result.graph.edge_weights(u);
    const auto orig_deg = (u == 0) ? 3u : (u <= 2 ? 2u : 1u);
    for (std::size_t i = orig_deg; i < nbrs.size(); ++i) {
      EXPECT_TRUE(valid.count(wts[i])) << "weight " << wts[i];
    }
  }
}

TEST(Latency, GoldenScheduleOnFixedGraph) {
  // Exact cluster selection on the two-triangle graph with insertion off
  // (threshold 0.9, budget 0): the four CC=1.0 triangle corners are the
  // anchor candidates, all with undirected degree 2, so the (degree
  // desc, cc desc, id) order is 0, 1, 4, 5. Anchor 0 claims its triangle
  // {0, 1, 2}; anchor 1 is then resident and skipped; anchor 4 claims
  // {4, 3, 5} (members follow the sorted adjacency row); anchor 5 is
  // resident. Path nodes 6 and 7 (CC 0) stay unscheduled. Each triangle
  // has induced diameter 1 -> t = 2 * 1 = 2.
  const auto result = latency_transform(clustered_graph(), knobs(0.9, 0.0));
  const auto& schedule = result.schedule;
  ASSERT_EQ(schedule.clusters.size(), 2u);
  EXPECT_EQ(schedule.clusters[0].members, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(schedule.clusters[1].members, (std::vector<NodeId>{4, 3, 5}));
  EXPECT_EQ(schedule.clusters[0].inner_iterations, 2u);
  EXPECT_EQ(schedule.clusters[1].inner_iterations, 2u);
  EXPECT_EQ(schedule.resident,
            (std::vector<NodeId>{0, 0, 0, 1, 1, 1, kInvalidNode,
                                 kInvalidNode}));
  EXPECT_EQ(schedule.resident_count(), 6u);
}

TEST(Latency, DegreeCapExcludesHubsFromInsertion) {
  // kDegreeCap = 64 bounds the O(d^2) sibling scans: a hub whose
  // undirected degree exceeds the cap is excluded from the scenario-1/2
  // candidate lists, and its CC is computed over the first 64 sorted
  // neighbors only. Hub 70 has neighbors 0..69 with sibling edges
  // (0,1), (2,3), (4,5), (6,7) — all among the first 64 — so its capped
  // CC is 2*4/(64*63) ~ 0.00198, inside the near window
  // [0.01 - 0.0085, 0.01). Were the hub a candidate, pass 2 would link
  // arbitrary non-adjacent sibling pairs (there are thousands); the
  // degree cap keeps it out, no other node qualifies (pair members have
  // CC 1.0 and their only sibling pair is already adjacent; the rest
  // have degree 1), so NOTHING may be inserted.
  GraphBuilder b(71);
  auto undirected = [&](NodeId u, NodeId v) {
    b.add_edge(u, v);
    b.add_edge(v, u);
  };
  for (NodeId v = 0; v < 70; ++v) undirected(70, v);
  undirected(0, 1);
  undirected(2, 3);
  undirected(4, 5);
  undirected(6, 7);
  LatencyKnobs k;
  k.cc_threshold = 0.01;
  k.near_delta = 0.0085;
  k.edge_budget_fraction = 1.0;  // the budget must not be the limiter
  const auto result = latency_transform(b.build(), k);
  EXPECT_EQ(result.edges_added, 0u);
  // The capped hub CC is stable and exact: 4 links among the first 64
  // neighbors; pair members contribute CC 1.0 each; the rest 0.
  const double hub_cc = 2.0 * 4.0 / (64.0 * 63.0);
  EXPECT_DOUBLE_EQ(result.mean_cc_before, (hub_cc + 8.0) / 71.0);
  EXPECT_DOUBLE_EQ(result.mean_cc_after, result.mean_cc_before);
}

TEST(Latency, RoadGridFormsClustersAfterBoost) {
  RoadGridParams p;
  p.width = 24;
  p.height = 24;
  p.diagonal_fraction = 0.15;
  Csr g = generate_road_grid(p);
  LatencyKnobs k = knobs(0.25, 0.15);
  k.near_delta = 0.25;
  const auto result = latency_transform(g, k);
  EXPECT_TRUE(validate_graph(result.graph).ok);
  EXPECT_FALSE(result.schedule.empty());
}

/// Folds the graph bits, edges_added, the cluster schedule and the bits
/// of both mean CCs.
std::uint64_t latency_digest(const LatencyResult& result) {
  std::uint64_t h = digest_csr(result.graph);
  h = fnv(h, result.edges_added);
  for (NodeId r : result.schedule.resident) h = fnv(h, r);
  h = fnv(h, result.schedule.clusters.size());
  for (const Cluster& cluster : result.schedule.clusters) {
    h = fnv(h, cluster.members.size());
    for (NodeId m : cluster.members) h = fnv(h, m);
    h = fnv(h, cluster.inner_iterations);
  }
  h = fnv(h, double_bits(result.mean_cc_before));
  return fnv(h, double_bits(result.mean_cc_after));
}

TEST(Latency, GoldenSuiteDigestsAtThreeKnobSets) {
  // Every Table 1 preset at scale 10 x three fixed knob sets, plus each
  // preset's own knobs as core::resolve_for_graph sets them for the
  // experiment grid and the benchmark (the test id predates that fourth
  // set). "aggressive" widens the near window and the budget; "tight"
  // leaves a budget small enough to stop scenario 1 midway on the dense
  // presets.
  LatencyKnobs aggressive;
  aggressive.cc_threshold = 0.4;
  aggressive.near_delta = 0.3;
  aggressive.edge_budget_fraction = 0.1;
  LatencyKnobs tight = aggressive;
  tight.edge_budget_fraction = 0.002;
  constexpr int kResolved = 3;
  const LatencyKnobs knob_sets[] = {LatencyKnobs{}, aggressive, tight};
  const char* const knob_names[] = {"default", "aggressive", "tight",
                                    "resolved"};
  const auto knobs_for = [&](GraphPreset preset, int knob_set) {
    return knob_set == kResolved
               ? core::resolve_for_graph(core::ExperimentConfig{}, preset)
                     .latency
               : knob_sets[knob_set];
  };
  struct Golden {
    GraphPreset preset;
    int knob_set;
    std::uint64_t edges_added;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {GraphPreset::Rmat26, 0, 239, 0xe547cfb96dd24efbull},
      {GraphPreset::Rmat26, 1, 1501, 0xd0f5b96403e49737ull},
      {GraphPreset::Rmat26, 2, 32, 0xb69bfb377acc5ab4ull},
      {GraphPreset::Random26, 0, 0, 0xbe00cff04493983bull},
      {GraphPreset::Random26, 1, 0, 0xbe00cff04493983bull},
      {GraphPreset::Random26, 2, 0, 0xbe00cff04493983bull},
      {GraphPreset::LiveJournal, 0, 27, 0xbc2551e27177f597ull},
      {GraphPreset::LiveJournal, 1, 1429, 0xa36f591827474886ull},
      {GraphPreset::LiveJournal, 2, 28, 0xd3473d2e47227319ull},
      {GraphPreset::UsaRoad, 0, 0, 0x55b0812d486986dbull},
      {GraphPreset::UsaRoad, 1, 394, 0x829d63ef0840eeb2ull},
      {GraphPreset::UsaRoad, 2, 7, 0x934052dc3a16bf0bull},
      {GraphPreset::Twitter, 0, 748, 0x033967d6672f25d8ull},
      {GraphPreset::Twitter, 1, 585, 0x1e713ca1d6c16b05ull},
      {GraphPreset::Twitter, 2, 64, 0x790c9433d40e1154ull},
      {GraphPreset::Rmat26, kResolved, 811, 0x765db417fcf952cfull},
      {GraphPreset::Random26, kResolved, 818, 0xcf594f9bd13f3f76ull},
      {GraphPreset::LiveJournal, kResolved, 714, 0x54d1e58dccc642b1ull},
      {GraphPreset::UsaRoad, kResolved, 78, 0xf663342cfa853f58ull},
      {GraphPreset::Twitter, kResolved, 585, 0x1e713ca1d6c16b05ull},
  };
  const std::vector<SuiteEntry> suite = make_suite(10, 7);
  for (const Golden& gold : goldens) {
    const SuiteEntry& entry = suite[static_cast<std::size_t>(gold.preset)];
    ASSERT_EQ(entry.preset, gold.preset);
    const LatencyResult result =
        latency_transform(entry.graph, knobs_for(gold.preset, gold.knob_set));
    const std::uint64_t h = latency_digest(result);
    const std::string what =
        std::string(entry.name) + " " + knob_names[gold.knob_set];
    EXPECT_EQ(result.edges_added, gold.edges_added) << what;
    EXPECT_EQ(h, gold.digest) << what << " digest 0x" << std::hex << h;
  }
}

TEST(Latency, GoldenDigestWhereLongRowsAreLinked) {
  // Twitter at scale 13 at its resolved knobs has rows longer than 256,
  // and the greedy links pairs of them; scenario 2 must see those links
  // when it ranks an anchor's siblings by connectivity.
  const LatencyResult result = latency_transform(
      make_preset(GraphPreset::Twitter, 13, 1),
      core::resolve_for_graph(core::ExperimentConfig{}, GraphPreset::Twitter)
          .latency);
  const std::uint64_t h = latency_digest(result);
  EXPECT_EQ(result.edges_added, 5765u);
  EXPECT_EQ(h, 0xfaca7e843eeb9070ull) << "digest 0x" << std::hex << h;
}

}  // namespace
}  // namespace graffix::transform
