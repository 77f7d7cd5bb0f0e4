// Exact diameter of the subgraph a CSR induces on a node set: the
// reference the latency transform's cluster schedule is checked against
// (t = t_diameter_factor x diameter, §3).
#pragma once

#include <algorithm>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/csr.hpp"

namespace graffix::testing {

/// BFS from each member over the undirected edges among `nodes`; the
/// diameter is the largest level reached (unreachable pairs are skipped).
inline NodeId induced_subgraph_diameter(const Csr& graph,
                                        std::span<const NodeId> nodes) {
  if (nodes.size() <= 1) return 0;
  std::unordered_map<NodeId, NodeId> index;
  index.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    index.emplace(nodes[i], static_cast<NodeId>(i));
  }
  const auto n = static_cast<NodeId>(nodes.size());
  std::vector<std::vector<NodeId>> adj(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId v : graph.neighbors(nodes[i])) {
      auto it = index.find(v);
      if (it != index.end() && it->second != i) {
        adj[i].push_back(it->second);
        adj[it->second].push_back(i);
      }
    }
  }
  NodeId diameter = 0;
  std::vector<NodeId> level(n);
  std::vector<NodeId> queue(n);
  for (NodeId src = 0; src < n; ++src) {
    std::fill(level.begin(), level.end(), kInvalidNode);
    level[src] = 0;
    NodeId head = 0, tail = 0;
    queue[tail++] = src;
    while (head < tail) {
      const NodeId u = queue[head++];
      for (NodeId v : adj[u]) {
        if (level[v] == kInvalidNode) {
          level[v] = level[u] + 1;
          diameter = std::max(diameter, level[v]);
          queue[tail++] = v;
        }
      }
    }
  }
  return diameter;
}

}  // namespace graffix::testing
