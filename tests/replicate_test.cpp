// Replication (Algorithm 2, step 2) tests: replicas only occupy former
// holes, replica groups are consistent, edges are conserved
// (moved + added), the connectedness threshold gates replication, and
// the full coalescing driver produces valid graphs with exactness when
// replication is disabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "gen/rmat.hpp"
#include "gen/road_grid.hpp"
#include "gen/suite.hpp"
#include "graph/validate.hpp"
#include "transform/coalescing.hpp"
#include "transform/validate.hpp"
#include "transform_digest.hpp"

namespace graffix::transform {
namespace {

using testing::digest_csr;
using testing::fnv;

Csr small_rmat(std::uint32_t scale = 9, std::uint32_t ef = 8) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = ef;
  return generate_rmat(p);
}

CoalescingKnobs default_knobs(double threshold = 0.3) {
  CoalescingKnobs knobs;
  knobs.chunk_size = 16;
  knobs.connectedness_threshold = threshold;
  return knobs;
}

TEST(Replicate, TransformedGraphIsValid) {
  const auto result = coalescing_transform(small_rmat(), default_knobs());
  EXPECT_TRUE(validate_graph(result.graph).ok);
}

TEST(Replicate, ReplicasOccupyFormerHolesOnly) {
  Csr g = small_rmat();
  const auto result = coalescing_transform(g, default_knobs());
  // Every replica slot must be a hole of the pure renumbering.
  for (const auto& group : result.replicas.groups) {
    ASSERT_GE(group.size(), 2u);
    // Primary is a real node.
    EXPECT_FALSE(result.renumber.is_hole_slot(group[0]));
    for (std::size_t i = 1; i < group.size(); ++i) {
      EXPECT_TRUE(result.renumber.is_hole_slot(group[i]))
          << "replica slot " << group[i];
      // And it is no longer a hole in the final graph.
      EXPECT_FALSE(result.graph.is_hole(group[i]));
    }
  }
  EXPECT_LE(result.holes_filled, result.holes_total);
}

TEST(Replicate, GroupOfSlotIsConsistent) {
  const auto result = coalescing_transform(small_rmat(), default_knobs());
  const ReplicaMap& map = result.replicas;
  for (std::size_t gid = 0; gid < map.groups.size(); ++gid) {
    for (NodeId s : map.groups[gid]) {
      EXPECT_EQ(map.group_of_slot[s], static_cast<NodeId>(gid));
    }
  }
  // Slots not in any group have no group id.
  std::set<NodeId> grouped;
  for (const auto& g : map.groups) grouped.insert(g.begin(), g.end());
  for (NodeId s = 0; s < result.graph.num_slots(); ++s) {
    if (!grouped.count(s)) {
      EXPECT_EQ(map.group_of_slot[s], kInvalidNode);
    }
  }
}

TEST(ReplicaGroups, TransformOutputPassesBijectivityCheck) {
  const auto result = coalescing_transform(small_rmat(), default_knobs());
  ASSERT_FALSE(result.replicas.empty());
  EXPECT_TRUE(validate_replica_groups(result.graph, result.replicas).ok);
}

TEST(ReplicaGroups, EmptyMapIsValid) {
  const Csr g = small_rmat();
  EXPECT_TRUE(validate_replica_groups(g, ReplicaMap{}).ok);
}

TEST(ReplicaGroups, DetectsSlotListedTwice) {
  auto result = coalescing_transform(small_rmat(), default_knobs());
  ASSERT_GE(result.replicas.groups.size(), 2u);
  // Smuggle a member of group 0 into group 1 as well.
  result.replicas.groups[1].push_back(result.replicas.groups[0][0]);
  const auto report =
      validate_replica_groups(result.graph, result.replicas);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.message.find("more than one"), std::string::npos);
}

TEST(ReplicaGroups, DetectsBrokenBackMap) {
  auto result = coalescing_transform(small_rmat(), default_knobs());
  ASSERT_FALSE(result.replicas.empty());
  // A listed member whose group_of_slot entry points elsewhere.
  result.replicas.group_of_slot[result.replicas.groups[0][0]] = kInvalidNode;
  const auto report =
      validate_replica_groups(result.graph, result.replicas);
  EXPECT_FALSE(report.ok);
}

TEST(ReplicaGroups, DetectsAssignmentWithoutMembership) {
  auto result = coalescing_transform(small_rmat(), default_knobs());
  ASSERT_FALSE(result.replicas.empty());
  // An unlisted slot claiming membership breaks the member count.
  const NodeId slots = result.graph.num_slots();
  for (NodeId s = 0; s < slots; ++s) {
    if (result.replicas.group_of_slot[s] == kInvalidNode) {
      result.replicas.group_of_slot[s] = 0;
      break;
    }
  }
  EXPECT_FALSE(validate_replica_groups(result.graph, result.replicas).ok);
}

TEST(ReplicaGroups, DetectsEmptyGroup) {
  auto result = coalescing_transform(small_rmat(), default_knobs());
  ASSERT_FALSE(result.replicas.empty());
  result.replicas.groups.push_back({});
  EXPECT_FALSE(validate_replica_groups(result.graph, result.replicas).ok);
}

TEST(ReplicaGroups, DetectsWrongSlotCount) {
  auto result = coalescing_transform(small_rmat(), default_knobs());
  ASSERT_FALSE(result.replicas.empty());
  result.replicas.group_of_slot.pop_back();
  EXPECT_FALSE(validate_replica_groups(result.graph, result.replicas).ok);
}

TEST(Replicate, EdgeCountConserved) {
  Csr g = small_rmat();
  const auto result = coalescing_transform(g, default_knobs());
  // Moved edges keep the total; added 2-hop edges are on top.
  EXPECT_EQ(result.graph.num_edges(), g.num_edges() + result.edges_added);
}

TEST(Replicate, ThresholdAboveOneDisablesReplication) {
  Csr g = small_rmat();
  const auto result = coalescing_transform(g, default_knobs(1.1));
  EXPECT_TRUE(result.replicas.empty());
  EXPECT_EQ(result.edges_added, 0u);
  EXPECT_EQ(result.graph.num_edges(), g.num_edges());
}

TEST(Replicate, LowerThresholdReplicatesMore) {
  Csr g = small_rmat(10, 16);
  const auto strict = coalescing_transform(g, default_knobs(0.9));
  const auto loose = coalescing_transform(g, default_knobs(0.2));
  EXPECT_GE(loose.replicas.replica_count(), strict.replicas.replica_count());
}

TEST(Replicate, ExactIsomorphPreservesSssp) {
  // With replication off, the transform is exact: SSSP results match the
  // original modulo the slot permutation (the key property test).
  Csr g = small_rmat(8);
  const auto result = coalescing_transform(g, default_knobs(1.1));
  const auto d_orig = sssp_dijkstra(g, 0);
  const auto d_slots = sssp_dijkstra(result.graph,
                                     result.renumber.slot_of_node[0]);
  const std::vector<Weight> d_proj = project_to_nodes<Weight>(
      result.renumber, std::span<const Weight>(d_slots));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(d_orig[v], d_proj[v]) << "node " << v;
  }
}

TEST(Replicate, ExactIsomorphPreservesPagerank) {
  Csr g = small_rmat(8);
  const auto result = coalescing_transform(g, default_knobs(1.1));
  const auto pr_orig = pagerank(g);
  const auto pr_new = pagerank(result.graph);
  const std::vector<double> pr_proj = project_to_nodes<double>(
      result.renumber, std::span<const double>(pr_new.rank));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(pr_orig.rank[v], pr_proj[v], 1e-9) << "node " << v;
  }
}

TEST(Replicate, NewEdgesPerReplicaRespectCap) {
  Csr g = small_rmat(10, 16);
  CoalescingKnobs knobs = default_knobs(0.3);
  knobs.max_new_edges_per_replica = 2;
  const auto result = coalescing_transform(g, knobs);
  EXPECT_LE(result.edges_added,
            2ull * result.replicas.replica_count());
}

TEST(Replicate, ReplicaEdgesStayInsideTheirChunk) {
  Csr g = small_rmat(10, 16);
  CoalescingKnobs knobs = default_knobs(0.3);
  const auto result = coalescing_transform(g, knobs);
  const std::uint32_t k = knobs.chunk_size;
  for (const auto& group : result.replicas.groups) {
    for (std::size_t i = 1; i < group.size(); ++i) {
      const NodeId replica = group[i];
      const auto nbrs = result.graph.neighbors(replica);
      if (nbrs.empty()) continue;
      // All of a replica's edges target one chunk (the chunk it was
      // created for).
      const NodeId chunk = nbrs[0] / k;
      for (NodeId v : nbrs) {
        EXPECT_EQ(v / k, chunk) << "replica " << replica;
      }
    }
  }
}

TEST(Replicate, RoadNetworkUsesLowerThreshold) {
  // Road networks have small uniform degrees; replication should still
  // find candidates at the paper's 0.4 threshold.
  RoadGridParams p;
  p.width = 32;
  p.height = 32;
  Csr g = generate_road_grid(p);
  const auto result = coalescing_transform(g, default_knobs(0.4));
  EXPECT_TRUE(validate_graph(result.graph).ok);
}

// --- golden regression ------------------------------------------------
// Digests captured from the pre-batching serial implementation. They pin
// the exact output of replicate_into_holes — graph bits, replica groups,
// and counters — so the hole-placement rewrites (per-level free-chunk
// lists, precomputed parent-chunk hints, reserve/apply batching) are
// provably behavior-preserving, not merely plausible.

TEST(Replicate, GoldenOutputUnchangedFromSerialBaseline) {
  struct Golden {
    GraphPreset preset;
    double threshold;
    NodeId holes_total, holes_filled;
    std::uint64_t moved, added, digest;
  };
  const Golden goldens[] = {
      {GraphPreset::Rmat26, 0.6, 32, 15, 996, 35, 0x9abc7eac41d2b24full},
      {GraphPreset::LiveJournal, 0.6, 48, 8, 200, 17, 0xaa2e2df3517c9f15ull},
      {GraphPreset::UsaRoad, 0.4, 368, 32, 69, 8, 0xe2e5080cc3dd0e83ull},
  };
  for (const Golden& gold : goldens) {
    const Csr g = make_preset(gold.preset, 10, 7);
    const RenumberResult renumber = renumber_bfs_forest(g, 16);
    const Csr renumbered = apply_renumbering(g, renumber);
    CoalescingKnobs knobs;
    knobs.connectedness_threshold = gold.threshold;
    const auto result = replicate_into_holes(renumbered, renumber, knobs);
    EXPECT_EQ(result.holes_total, gold.holes_total);
    EXPECT_EQ(result.holes_filled, gold.holes_filled);
    EXPECT_EQ(result.edges_moved, gold.moved);
    EXPECT_EQ(result.edges_added, gold.added);
    std::uint64_t h = digest_csr(result.graph);
    for (const auto& group : result.replicas.groups) {
      for (NodeId s : group) h = fnv(h, s);
    }
    for (NodeId s : result.replicas.group_of_slot) h = fnv(h, s);
    EXPECT_EQ(h, gold.digest) << preset_name(gold.preset);
  }
}

TEST(Replicate, GoldenSuiteDigestsAtThreeThresholds) {
  // Recorded from the conflict-free batched apply rounds, which matched
  // the serial loop byte for byte on this suite at 1, 2 and 8 threads:
  // every Table 1 preset at scale 10 x the thresholds 0.6, 0.4 and 0.3.
  // The digest folds the graph bits, the replica groups and every
  // counter.
  struct Golden {
    GraphPreset preset;
    double threshold;
    NodeId holes_filled;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {GraphPreset::Rmat26, 0.6, 15, 0x5c776d89cc0f079full},
      {GraphPreset::Rmat26, 0.4, 16, 0x28fefcec06eb2a6eull},
      {GraphPreset::Rmat26, 0.3, 26, 0x2927fb98b8226e1dull},
      {GraphPreset::Random26, 0.6, 4, 0xedba3fa34f5bbcc0ull},
      {GraphPreset::Random26, 0.4, 4, 0xedba3fa34f5bbcc0ull},
      {GraphPreset::Random26, 0.3, 4, 0xedba3fa34f5bbcc0ull},
      {GraphPreset::LiveJournal, 0.6, 8, 0xad3c620777b711e3ull},
      {GraphPreset::LiveJournal, 0.4, 21, 0xa941f17f4969ebc2ull},
      {GraphPreset::LiveJournal, 0.3, 21, 0xa941f17f4969ebc2ull},
      {GraphPreset::UsaRoad, 0.6, 4, 0x125b257430f460ecull},
      {GraphPreset::UsaRoad, 0.4, 32, 0x47b148419df96e25ull},
      {GraphPreset::UsaRoad, 0.3, 52, 0x437ab629436a1d69ull},
      {GraphPreset::Twitter, 0.6, 8, 0xea1a64b9c1d92a47ull},
      {GraphPreset::Twitter, 0.4, 14, 0x209c61a9054da355ull},
      {GraphPreset::Twitter, 0.3, 20, 0x68af419e385c9c5aull},
  };
  const std::vector<SuiteEntry> suite = make_suite(10, 7);
  std::uint64_t filled = 0;
  for (const Golden& gold : goldens) {
    const SuiteEntry& entry = suite[static_cast<std::size_t>(gold.preset)];
    ASSERT_EQ(entry.preset, gold.preset);
    const Csr& g = entry.graph;
    const RenumberResult renumber = renumber_bfs_forest(g, 16);
    const Csr renumbered = apply_renumbering(g, renumber);
    CoalescingKnobs knobs;
    knobs.connectedness_threshold = gold.threshold;
    const auto result = replicate_into_holes(renumbered, renumber, knobs);
    std::uint64_t h = digest_csr(result.graph);
    h = fnv(h, result.edges_moved);
    h = fnv(h, result.edges_added);
    h = fnv(h, result.holes_total);
    h = fnv(h, result.holes_filled);
    for (const auto& group : result.replicas.groups) {
      h = fnv(h, group.size());
      for (NodeId s : group) h = fnv(h, s);
    }
    for (NodeId s : result.replicas.group_of_slot) h = fnv(h, s);
    const std::string what = std::string(preset_name(gold.preset)) +
                             " threshold " + std::to_string(gold.threshold);
    EXPECT_EQ(result.holes_filled, gold.holes_filled) << what;
    EXPECT_EQ(h, gold.digest) << what << " digest 0x" << std::hex << h;
    filled += result.holes_filled;
  }
  EXPECT_GT(filled, 0u);  // replication must have engaged somewhere
}

TEST(Replicate, ExtraSpaceFractionIsReported) {
  const auto result = coalescing_transform(small_rmat(), default_knobs());
  // Renumbering adds holes; replication adds edges -> strictly positive.
  EXPECT_GT(result.extra_space_fraction, 0.0);
  EXPECT_LT(result.extra_space_fraction, 1.0);
}

}  // namespace
}  // namespace graffix::transform
