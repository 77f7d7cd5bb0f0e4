// Structural graph properties used by the Graffix transforms and the
// experiment harness: degree statistics, local clustering coefficients
// (§3 drives cluster selection off these), BFS levels, and a pseudo-
// diameter estimate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"

namespace graffix {

struct DegreeStats {
  NodeId min = 0;
  NodeId max = 0;
  double mean = 0.0;
  double stddev = 0.0;
};

/// Out-degree statistics over non-hole slots.
[[nodiscard]] DegreeStats degree_stats(const Csr& graph);

/// Local clustering coefficient of every slot (holes get 0). The graph is
/// treated as undirected, per §3 of the paper. For nodes whose degree
/// exceeds degree_cap, neighbors are subsampled deterministically to bound
/// the O(d^2) triangle check on power-law hubs.
[[nodiscard]] std::vector<double> clustering_coefficients(
    const Csr& graph, NodeId degree_cap = 128);

/// Mean clustering coefficient over non-hole slots.
[[nodiscard]] double average_clustering_coefficient(
    std::span<const double> cc, const Csr& graph);

/// BFS levels from a single source over out-edges; unreachable slots and
/// holes get kInvalidNode... levels fit in NodeId.
[[nodiscard]] std::vector<NodeId> bfs_levels(const Csr& graph, NodeId source);

/// Pseudo-diameter via double sweep from the given seed.
[[nodiscard]] NodeId pseudo_diameter(const Csr& graph, NodeId seed = 0);

/// Number of weakly connected components (undirected view).
[[nodiscard]] NodeId weakly_connected_components(const Csr& graph);

/// Power-of-two degree histogram over non-hole slots: bucket[i] counts
/// nodes with degree in [2^(i-1), 2^i) (bucket 0 = degree 0). Used by
/// the stats tooling to eyeball skew — a power-law graph has a long,
/// slowly-decaying tail; ER and road graphs concentrate in 1-2 buckets.
[[nodiscard]] std::vector<NodeId> degree_histogram(const Csr& graph);

/// Quantiles (e.g. {0.5, 0.9, 0.99}) of a per-node metric over non-hole
/// slots, by sorting a copy. Values for hole slots are ignored.
[[nodiscard]] std::vector<double> metric_quantiles(
    const Csr& graph, std::span<const double> per_slot,
    std::span<const double> quantiles);

}  // namespace graffix
