#include "algorithms/sssp.hpp"

#include <queue>

#include "util/macros.hpp"

namespace graffix {

std::vector<Weight> sssp_dijkstra(const Csr& graph, NodeId source) {
  const NodeId slots = graph.num_slots();
  GRAFFIX_CHECK(source < slots && !graph.is_hole(source), "bad source %u",
                source);
  std::vector<Weight> dist(slots, kInfWeight);
  dist[source] = 0;
  using Entry = std::pair<Weight, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.push({0, source});
  // Invariant spans hoisted out of the pop loop: the CSR arrays never
  // move while we relax, so indexing by edge id beats re-fetching the
  // per-node spans (and re-asking has_weights()) on every pop.
  const auto offsets = graph.offsets();
  const auto targets = graph.targets();
  const auto weights = graph.weights();
  const bool weighted = graph.has_weights();
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    const EdgeId end = offsets[u + 1];
    for (EdgeId e = offsets[u]; e < end; ++e) {
      const NodeId v = targets[e];
      const Weight nd = d + (weighted ? weights[e] : Weight{1});
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.push({nd, v});
      }
    }
  }
  return dist;
}

std::vector<Weight> sssp_bellman_ford(const Csr& graph, NodeId source,
                                      std::uint32_t max_rounds) {
  const NodeId slots = graph.num_slots();
  GRAFFIX_CHECK(source < slots && !graph.is_hole(source), "bad source %u",
                source);
  if (max_rounds == 0) max_rounds = slots + 1;
  std::vector<Weight> dist(slots, kInfWeight);
  dist[source] = 0;
  const bool weighted = graph.has_weights();
  bool changed = true;
  for (std::uint32_t round = 0; round < max_rounds && changed; ++round) {
    changed = false;
    for (NodeId u = 0; u < slots; ++u) {
      if (graph.is_hole(u) || dist[u] == kInfWeight) continue;
      const auto nbrs = graph.neighbors(u);
      const auto wts =
          weighted ? graph.edge_weights(u) : std::span<const Weight>{};
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const Weight nd = dist[u] + (weighted ? wts[i] : Weight{1});
        if (nd < dist[nbrs[i]]) {
          dist[nbrs[i]] = nd;
          changed = true;
        }
      }
    }
  }
  return dist;
}

}  // namespace graffix
