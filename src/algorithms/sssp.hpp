// Single-source shortest paths (host references).
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace graffix {

/// Serial Dijkstra with a binary heap — exact ground truth for accuracy
/// metrics. Requires non-negative weights; an unweighted graph is treated
/// as all-ones.
[[nodiscard]] std::vector<Weight> sssp_dijkstra(const Csr& graph, NodeId source);

/// Serial Bellman-Ford (round-based relax-to-fixpoint); used to
/// cross-check Dijkstra and as the shape of the device kernel.
[[nodiscard]] std::vector<Weight> sssp_bellman_ford(const Csr& graph,
                                                    NodeId source,
                                                    std::uint32_t max_rounds = 0);

}  // namespace graffix
