// Property tests for the greedy transform phases under randomized knobs
// (fixed seeds): invariants that must hold for ANY knob setting —
//   latency: the edge budget is a hard cap, hole masks survive, every
//     inserted arc is a 2-hop shortcut whose weight is exactly the sum
//     of its two hops through a common neighbor, and both reported mean
//     CCs equal a from-scratch recount of the input and output graphs;
//   replication: groups and group_of_slot agree, primaries lead their
//     groups, replicas occupy former holes only, the per-node copy cap
//     holds, and holes_filled counts exactly the replicas.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "gen/suite.hpp"
#include "graph/csr.hpp"
#include "transform/coalescing.hpp"
#include "transform/latency.hpp"
#include "transform/renumber.hpp"
#include "transform/replicate.hpp"

namespace graffix::transform {
namespace {

/// xorshift64* — deterministic knob randomization.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1Dull;
  }
  double uniform() {  // [0, 1)
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }
};

/// Sorted undirected neighbor/weight view of a CSR (min weight over the
/// two directions), mirroring the transform's own definition.
struct UndView {
  std::vector<std::vector<std::pair<NodeId, Weight>>> rows;

  explicit UndView(const Csr& g) : rows(g.num_slots()) {
    const bool weighted = g.has_weights();
    for (NodeId u = 0; u < g.num_slots(); ++u) {
      const auto nbrs = g.neighbors(u);
      const auto wts = weighted ? g.edge_weights(u) : std::span<const Weight>{};
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (nbrs[i] == u) continue;
        const Weight w = weighted ? wts[i] : Weight{1};
        rows[u].emplace_back(nbrs[i], w);
        rows[nbrs[i]].emplace_back(u, w);
      }
    }
    for (auto& row : rows) {
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                row.end());
    }
  }

  [[nodiscard]] bool weight_of(NodeId a, NodeId b, Weight& w) const {
    const auto& row = rows[a];
    auto it = std::lower_bound(
        row.begin(), row.end(), b,
        [](const auto& e, NodeId x) { return e.first < x; });
    if (it == row.end() || it->first != b) return false;
    w = it->second;
    return true;
  }
};

// --- latency ---------------------------------------------------------

void check_latency_invariants(const Csr& input, const LatencyKnobs& knobs,
                              const std::string& what) {
  const LatencyResult result = latency_transform(input, knobs);

  // Hard budget cap.
  const auto budget = static_cast<std::uint64_t>(
      knobs.edge_budget_fraction * static_cast<double>(input.num_edges()));
  EXPECT_LE(result.edges_added, budget) << what;

  // Arc conservation: output = input + inserted.
  EXPECT_EQ(result.graph.num_edges(), input.num_edges() + result.edges_added)
      << what;

  // Hole-mask preservation: the transform never fills or creates holes,
  // and hole rows stay empty.
  ASSERT_EQ(result.graph.num_slots(), input.num_slots()) << what;
  for (NodeId s = 0; s < input.num_slots(); ++s) {
    EXPECT_EQ(result.graph.is_hole(s), input.is_hole(s)) << what << " slot "
                                                         << s;
    if (input.is_hole(s)) {
      EXPECT_EQ(result.graph.degree(s), 0u) << what << " hole slot " << s;
    }
  }

  // Every inserted arc (the per-row suffix beyond the input degree) is a
  // 2-hop shortcut: endpoints share a neighbor x in the RESULT graph's
  // undirected view with w == w(x,a) + w(x,b) exactly (float addition of
  // the two hop weights — no tolerance).
  const UndView und(result.graph);
  std::uint64_t inserted_seen = 0;
  for (NodeId a = 0; a < input.num_slots(); ++a) {
    const auto before = input.degree(a);
    const auto nbrs = result.graph.neighbors(a);
    const auto wts = result.graph.has_weights()
                         ? result.graph.edge_weights(a)
                         : std::span<const Weight>{};
    for (std::size_t i = before; i < nbrs.size(); ++i) {
      ++inserted_seen;
      const NodeId b = nbrs[i];
      const Weight w = result.graph.has_weights() ? wts[i] : Weight{1};
      EXPECT_LT(a, b) << what << ": inserted arcs are stored low->high";
      const bool weighted = result.graph.has_weights();
      bool two_hop = false;
      for (const auto& [x, wxa] : und.rows[a]) {
        if (x == b) continue;
        Weight wxb;
        if (!und.weight_of(x, b, wxb)) continue;
        // Unweighted inputs have no weight to corroborate — a common
        // neighbor alone witnesses the 2-hop shape.
        if (!weighted || w == wxa + wxb) {
          two_hop = true;
          break;
        }
      }
      EXPECT_TRUE(two_hop)
          << what << ": inserted arc " << a << "->" << b << " w=" << w
          << " has no 2-hop witness";
    }
  }
  EXPECT_EQ(inserted_seen, result.edges_added) << what;
}

TEST(TransformProperty, LatencyInvariantsUnderRandomKnobs) {
  Rng rng{0x5eed0001u};
  const Csr rmat = make_preset(GraphPreset::Rmat26, 9, 11);
  const Csr road = make_preset(GraphPreset::UsaRoad, 9, 11);
  for (int trial = 0; trial < 6; ++trial) {
    LatencyKnobs knobs;
    knobs.cc_threshold = 0.3 + 0.6 * rng.uniform();
    knobs.near_delta = 0.4 * rng.uniform();
    knobs.edge_budget_fraction = 0.2 * rng.uniform();
    knobs.max_edges_per_anchor = rng.below(12);
    const std::string what = "trial " + std::to_string(trial);
    check_latency_invariants(rmat, knobs, what + " rmat");
    check_latency_invariants(road, knobs, what + " road");
  }
}

TEST(TransformProperty, LatencyPreservesHolesOfRenumberedInput) {
  // The transform composes with the coalescing output: feed it a
  // renumbered graph WITH holes and check the mask survives.
  const Csr g = make_preset(GraphPreset::Rmat26, 9, 11);
  const RenumberResult renumber = renumber_bfs_forest(g, 16);
  const Csr renumbered = apply_renumbering(g, renumber);
  ASSERT_TRUE(renumbered.has_holes());
  LatencyKnobs knobs;
  knobs.cc_threshold = 0.4;
  knobs.near_delta = 0.3;
  knobs.edge_budget_fraction = 0.1;
  check_latency_invariants(renumbered, knobs, "renumbered-with-holes");
}

/// Mean local clustering coefficient by definition, as the transform
/// reports it: on the undirected view, over each node's first 64 sorted
/// neighbors, one lookup per neighbor pair, summed in slot order.
double recount_mean_cc(const Csr& g) {
  constexpr std::size_t kDegreeCap = 64;
  const UndView und(g);
  const NodeId n = g.num_slots();
  double sum = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    const auto& row = und.rows[u];
    const auto d = static_cast<NodeId>(std::min(row.size(), kDegreeCap));
    double cc = 0.0;
    if (d >= 2) {
      std::uint64_t links = 0;
      Weight unused;
      for (NodeId i = 0; i < d; ++i) {
        for (NodeId j = i + 1; j < d; ++j) {
          if (und.weight_of(row[i].first, row[j].first, unused)) ++links;
        }
      }
      cc = 2.0 * static_cast<double>(links) /
           (static_cast<double>(d) * (d - 1));
    }
    sum += cc;
  }
  return n == 0 ? 0.0 : sum / n;
}

/// Nodes whose capped list lost a member: a neighbor among the input's
/// first 64 that the output no longer has among its first 64.
std::size_t count_capped_evictions(const Csr& input, const Csr& output) {
  constexpr std::size_t kDegreeCap = 64;
  const UndView before(input);
  const UndView after(output);
  std::size_t evicting = 0;
  for (NodeId u = 0; u < input.num_slots(); ++u) {
    const auto& old_row = before.rows[u];
    const auto& new_row = after.rows[u];
    const auto new_end =
        new_row.begin() + static_cast<std::ptrdiff_t>(
                              std::min(new_row.size(), kDegreeCap));
    for (std::size_t i = 0; i < std::min(old_row.size(), kDegreeCap); ++i) {
      if (!std::binary_search(new_row.begin(), new_end, old_row[i],
                              [](const auto& a, const auto& b) {
                                return a.first < b.first;
                              })) {
        ++evicting;
        break;
      }
    }
  }
  return evicting;
}

TEST(TransformProperty, LatencyMeanCcsEqualFullRecount) {
  // The transform derives the output CCs incrementally from the input's
  // link counts; a full recount must give the same doubles, bit for bit.
  LatencyKnobs aggressive;
  aggressive.cc_threshold = 0.4;
  aggressive.near_delta = 0.3;
  aggressive.edge_budget_fraction = 0.1;
  LatencyKnobs tight = aggressive;
  tight.edge_budget_fraction = 0.002;
  std::uint64_t total_added = 0;
  for (const SuiteEntry& entry : make_suite(10, 11)) {
    for (const LatencyKnobs& knobs : {LatencyKnobs{}, aggressive, tight}) {
      const LatencyResult result = latency_transform(entry.graph, knobs);
      const std::string what = entry.name + " threshold " +
                               std::to_string(knobs.cc_threshold) +
                               " budget " +
                               std::to_string(knobs.edge_budget_fraction);
      EXPECT_EQ(result.mean_cc_before, recount_mean_cc(entry.graph)) << what;
      EXPECT_EQ(result.mean_cc_after, recount_mean_cc(result.graph)) << what;
      total_added += result.edges_added;
    }
  }
  EXPECT_GT(total_added, 0u);  // the output CCs must differ somewhere

  // Scale 12 at each preset's resolved knobs: off the road grid, nodes
  // with 64 or more neighbors gain neighbors that sort inside their first
  // 64, so their capped lists evict members (27 to 585 nodes per preset
  // at seed 11), and the incremental counts must follow that too.
  for (const SuiteEntry& entry : make_suite(12, 11)) {
    const LatencyKnobs knobs =
        core::resolve_for_graph(core::ExperimentConfig{}, entry.preset)
            .latency;
    const LatencyResult result = latency_transform(entry.graph, knobs);
    EXPECT_EQ(result.mean_cc_before, recount_mean_cc(entry.graph))
        << entry.name << " scale 12";
    EXPECT_EQ(result.mean_cc_after, recount_mean_cc(result.graph))
        << entry.name << " scale 12";
    if (preset_is_power_law(entry.preset)) {
      EXPECT_GT(count_capped_evictions(entry.graph, result.graph), 0u)
          << entry.name << " scale 12";
    }
  }
}

// --- replication -----------------------------------------------------

void check_replication_invariants(const Csr& renumbered,
                                  const RenumberResult& renumber,
                                  const CoalescingKnobs& knobs,
                                  const std::string& what) {
  const ReplicationResult result =
      replicate_into_holes(renumbered, renumber, knobs);
  const ReplicaMap& map = result.replicas;

  // groups <-> group_of_slot bijection.
  std::set<NodeId> grouped;
  std::uint64_t replicas_total = 0;
  for (std::size_t gid = 0; gid < map.groups.size(); ++gid) {
    const auto& group = map.groups[gid];
    ASSERT_GE(group.size(), 2u) << what << " group " << gid;
    // Per-node copy cap (primary + at most max_replicas_per_node copies).
    EXPECT_LE(group.size(),
              static_cast<std::size_t>(knobs.max_replicas_per_node) + 1)
        << what << " group " << gid;
    // Primary first, a real node; replicas occupy former holes only.
    EXPECT_FALSE(renumbered.is_hole(group[0])) << what << " group " << gid;
    for (std::size_t i = 1; i < group.size(); ++i) {
      EXPECT_TRUE(renumbered.is_hole(group[i]))
          << what << " replica slot " << group[i];
      EXPECT_FALSE(result.graph.is_hole(group[i]))
          << what << " replica slot " << group[i];
      ++replicas_total;
    }
    for (NodeId s : group) {
      EXPECT_EQ(map.group_of_slot[s], static_cast<NodeId>(gid)) << what;
      EXPECT_TRUE(grouped.insert(s).second)
          << what << " slot " << s << " in two groups";
    }
  }
  for (NodeId s = 0; s < result.graph.num_slots(); ++s) {
    if (!grouped.count(s)) {
      EXPECT_EQ(map.group_of_slot[s], kInvalidNode) << what << " slot " << s;
    }
  }

  // holes_filled counts exactly the replicas; totals are conserved.
  EXPECT_EQ(result.holes_filled, replicas_total) << what;
  EXPECT_LE(result.holes_filled, result.holes_total) << what;
  EXPECT_EQ(result.graph.num_edges(),
            renumbered.num_edges() + result.edges_added)
      << what;
}

TEST(TransformProperty, ReplicationInvariantsUnderRandomKnobs) {
  Rng rng{0x5eed0002u};
  const Csr rmat = make_preset(GraphPreset::Rmat26, 9, 11);
  const Csr lj = make_preset(GraphPreset::LiveJournal, 9, 11);
  for (const Csr* g : {&rmat, &lj}) {
    const RenumberResult renumber = renumber_bfs_forest(*g, 16);
    const Csr renumbered = apply_renumbering(*g, renumber);
    for (int trial = 0; trial < 6; ++trial) {
      CoalescingKnobs knobs;
      knobs.connectedness_threshold = 0.2 + 0.7 * rng.uniform();
      knobs.max_new_edges_per_replica = rng.below(13);
      knobs.max_replicas_per_node = 1 + rng.below(6);
      check_replication_invariants(
          renumbered, renumber, knobs,
          "trial " + std::to_string(trial) + " g" +
              std::to_string(g == &rmat ? 0 : 1));
    }
  }
}

}  // namespace
}  // namespace graffix::transform
