#include "transform/renumber.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "util/macros.hpp"
#include "util/parallel.hpp"
#include "util/prefix_sum.hpp"

namespace graffix::transform {

namespace {

/// BFS levels with downward relaxation across multiple roots (§2.2):
/// roots picked in decreasing out-degree among unvisited nodes; a later
/// traversal may lower levels of already-visited nodes.
std::vector<NodeId> forest_levels(const Csr& graph) {
  const NodeId n = graph.num_slots();
  std::vector<NodeId> level(n, kInvalidNode);
  std::vector<std::uint8_t> visited(n, 0);

  std::vector<NodeId> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), NodeId{0});
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](NodeId a, NodeId b) {
                     return graph.degree(a) > graph.degree(b);
                   });

  std::vector<NodeId> queue;
  for (NodeId root : by_degree) {
    if (visited[root]) continue;
    visited[root] = 1;
    level[root] = 0;
    queue.clear();
    queue.push_back(root);
    std::size_t head = 0;
    while (head < queue.size()) {
      const NodeId u = queue[head++];
      const NodeId next_level = level[u] + 1;
      for (NodeId v : graph.neighbors(u)) {
        if (next_level < level[v]) {
          level[v] = next_level;
          visited[v] = 1;
          queue.push_back(v);
        }
      }
    }
  }
  return level;
}

}  // namespace

RenumberResult renumber_bfs_forest(const Csr& graph, std::uint32_t k) {
  GRAFFIX_CHECK(k >= 1 && k <= 32, "chunk size %u out of [1,32]", k);
  GRAFFIX_CHECK(!graph.has_holes(),
                "renumbering expects an untransformed graph");
  const NodeId n = graph.num_slots();

  RenumberResult result;
  result.chunk_size = k;
  result.slot_of_node.assign(n, kInvalidNode);
  if (n == 0) {
    result.num_slots = 0;
    return result;
  }

  const std::vector<NodeId> level = forest_levels(graph);
  NodeId num_levels = 0;
  for (NodeId v = 0; v < n; ++v) {
    GRAFFIX_DCHECK(level[v] != kInvalidNode, "node %u unleveled", v);
    num_levels = std::max(num_levels, level[v] + 1);
  }

  std::vector<std::vector<NodeId>> by_level(num_levels);
  for (NodeId v = 0; v < n; ++v) by_level[level[v]].push_back(v);

  // Level 0 = the BFS roots, numbered in root pick order (decreasing
  // out-degree, stable by id).
  std::stable_sort(by_level[0].begin(), by_level[0].end(),
                   [&](NodeId a, NodeId b) {
                     return graph.degree(a) > graph.degree(b);
                   });

  const auto align_up = [k](NodeId x) {
    return static_cast<NodeId>((x + k - 1) / k * k);
  };

  NodeId gid = 0;
  result.level_start.push_back(0);
  // Members of the current level in slot order: the round-robin visits
  // the j-th neighbor of each parent in the order the parents were placed.
  std::vector<NodeId> parents = by_level[0];
  for (NodeId v : parents) result.slot_of_node[v] = gid++;

  std::vector<NodeId> live, placed;
  for (NodeId i = 0; i + 1 < num_levels; ++i) {
    gid = align_up(gid);
    result.level_start.push_back(gid);
    placed.clear();
    auto place = [&](NodeId v) {
      result.slot_of_node[v] = gid++;
      placed.push_back(v);
    };

    // Round j visits only the parents that still have a j-th neighbor,
    // kept in slot order, so the (j, parent) pairs come in the same
    // order as a sweep of every parent for every j < max degree, at a
    // cost of the level's degree sum.
    live.clear();
    for (NodeId p : parents) {
      if (graph.degree(p) > 0) live.push_back(p);
    }
    for (NodeId j = 0; !live.empty(); ++j) {
      std::size_t kept = 0;
      for (NodeId p : live) {
        const auto nbrs = graph.neighbors(p);
        const NodeId child = nbrs[j];
        if (level[child] == i + 1 &&
            result.slot_of_node[child] == kInvalidNode) {
          place(child);
        }
        if (nbrs.size() > j + 1) live[kept++] = p;
      }
      live.resize(kept);
    }
    // Defensive: number any level-(i+1) nodes not reached through a
    // parent's adjacency position (cannot happen at level fixpoint, but
    // keeps the bijection total).
    for (NodeId v : by_level[i + 1]) {
      if (result.slot_of_node[v] == kInvalidNode) place(v);
    }
    parents.swap(placed);
  }

  result.num_slots = align_up(gid);
  result.node_of_slot.assign(result.num_slots, kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId s = result.slot_of_node[v];
    GRAFFIX_DCHECK(s < result.num_slots, "slot overflow");
    GRAFFIX_DCHECK(result.node_of_slot[s] == kInvalidNode, "slot clash");
    result.node_of_slot[s] = v;
  }

  // Levels per slot from the level_start boundaries.
  result.level_of_slot.assign(result.num_slots, 0);
  for (NodeId lvl = 0; lvl < result.num_levels(); ++lvl) {
    const NodeId lo = result.level_start[lvl];
    const NodeId hi = (lvl + 1 < result.num_levels())
                          ? result.level_start[lvl + 1]
                          : result.num_slots;
    for (NodeId s = lo; s < hi; ++s) result.level_of_slot[s] = lvl;
  }
  return result;
}

Csr apply_renumbering(const Csr& graph, const RenumberResult& renumber) {
  // Parallel permuted rebuild: per-slot degrees -> deterministic scan ->
  // per-slot scatter. Each slot's edge range is fixed before the scatter,
  // so the output is identical for every thread count.
  const NodeId slots = renumber.num_slots;
  std::vector<EdgeId> offsets(static_cast<std::size_t>(slots) + 1, 0);
  std::vector<std::uint8_t> holes(slots, 0);
  parallel_for(NodeId{0}, slots, [&](NodeId s) {
    if (renumber.is_hole_slot(s)) {
      holes[s] = 1;
    } else {
      offsets[s] = graph.degree(renumber.node_of_slot[s]);
    }
  });
  parallel_exclusive_scan_inplace(std::span<EdgeId>(offsets));

  std::vector<NodeId> targets(graph.num_edges());
  std::vector<Weight> weights(graph.has_weights() ? graph.num_edges() : 0);
  parallel_for_dynamic(NodeId{0}, slots, [&](NodeId s) {
    if (holes[s]) return;
    const NodeId old = renumber.node_of_slot[s];
    const auto nbrs = graph.neighbors(old);
    EdgeId pos = offsets[s];
    for (std::size_t i = 0; i < nbrs.size(); ++i, ++pos) {
      targets[pos] = renumber.slot_of_node[nbrs[i]];
      if (!weights.empty()) weights[pos] = graph.edge_weights(old)[i];
    }
  });
  return Csr(std::move(offsets), std::move(targets), std::move(weights),
             std::move(holes));
}

}  // namespace graffix::transform
