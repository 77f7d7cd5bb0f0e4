#include "graph/properties.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/parallel.hpp"

namespace graffix {

DegreeStats degree_stats(const Csr& graph) {
  DegreeStats stats;
  const NodeId slots = graph.num_slots();
  if (graph.num_nodes() == 0) return stats;
  stats.min = kInvalidNode;
  double sum = 0.0, sum_sq = 0.0;
  NodeId count = 0;
  for (NodeId s = 0; s < slots; ++s) {
    if (graph.is_hole(s)) continue;
    const NodeId d = graph.degree(s);
    stats.min = std::min(stats.min, d);
    stats.max = std::max(stats.max, d);
    sum += d;
    sum_sq += static_cast<double>(d) * d;
    ++count;
  }
  stats.mean = sum / count;
  stats.stddev = std::sqrt(std::max(0.0, sum_sq / count - stats.mean * stats.mean));
  return stats;
}

std::vector<double> clustering_coefficients(const Csr& graph,
                                            NodeId degree_cap) {
  const Csr und = graph.symmetrized();
  const NodeId slots = und.num_slots();
  std::vector<double> cc(slots, 0.0);

  // Sorted adjacency for O(log d) membership tests.
  // und comes from GraphBuilder, whose output is sorted by (src, dst).
  parallel_for_dynamic(NodeId{0}, slots, [&](NodeId u) {
    if (und.is_hole(u)) return;
    auto nbrs = und.neighbors(u);
    // Drop self loops from the count.
    std::vector<NodeId> uniq;
    // graffix-lint: allow(R6) per-vertex neighbor scratch, degree-bounded; lives only for this task
    uniq.reserve(nbrs.size());
    for (NodeId v : nbrs) {
      // graffix-lint: allow(R6) append stays within the reserve above
      if (v != u && (uniq.empty() || uniq.back() != v)) uniq.push_back(v);
    }
    NodeId d = static_cast<NodeId>(uniq.size());
    if (d < 2) return;
    // Deterministic subsample for hubs: take a strided subset.
    std::vector<NodeId> sample;
    if (d > degree_cap) {
      // graffix-lint: allow(R6) hub subsample scratch, capped at degree_cap; lives only for this task
      sample.reserve(degree_cap);
      const double stride = static_cast<double>(d) / degree_cap;
      for (NodeId i = 0; i < degree_cap; ++i) {
        // graffix-lint: allow(R6) append stays within the reserve above
        sample.push_back(uniq[static_cast<std::size_t>(i * stride)]);
      }
      uniq.swap(sample);
      d = degree_cap;
    }
    std::uint64_t links = 0;
    for (NodeId i = 0; i < d; ++i) {
      auto vn = und.neighbors(uniq[i]);
      for (NodeId j = i + 1; j < d; ++j) {
        if (std::binary_search(vn.begin(), vn.end(), uniq[j])) ++links;
      }
    }
    cc[u] = 2.0 * static_cast<double>(links) /
            (static_cast<double>(d) * (d - 1));
  });
  return cc;
}

double average_clustering_coefficient(std::span<const double> cc,
                                      const Csr& graph) {
  double sum = 0.0;
  NodeId count = 0;
  for (NodeId s = 0; s < graph.num_slots(); ++s) {
    if (graph.is_hole(s)) continue;
    sum += cc[s];
    ++count;
  }
  return count == 0 ? 0.0 : sum / count;
}

std::vector<NodeId> bfs_levels(const Csr& graph, NodeId source) {
  const NodeId slots = graph.num_slots();
  std::vector<NodeId> level(slots, kInvalidNode);
  GRAFFIX_CHECK(source < slots && !graph.is_hole(source),
                "bad BFS source %u", source);
  std::vector<NodeId> frontier{source};
  level[source] = 0;
  NodeId depth = 0;
  while (!frontier.empty()) {
    ++depth;
    std::vector<NodeId> next;
    for (NodeId u : frontier) {
      for (NodeId v : graph.neighbors(u)) {
        if (level[v] == kInvalidNode) {
          level[v] = depth;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  return level;
}

NodeId pseudo_diameter(const Csr& graph, NodeId seed) {
  if (graph.num_nodes() == 0) return 0;
  const NodeId slots = graph.num_slots();
  while (seed < slots && graph.is_hole(seed)) ++seed;
  if (seed >= slots) return 0;
  const Csr und = graph.symmetrized();

  NodeId best = 0;
  NodeId start = seed;
  for (int sweep = 0; sweep < 2; ++sweep) {
    auto levels = bfs_levels(und, start);
    NodeId far_node = start, far_level = 0;
    for (NodeId s = 0; s < slots; ++s) {
      if (levels[s] != kInvalidNode && levels[s] > far_level) {
        far_level = levels[s];
        far_node = s;
      }
    }
    best = std::max(best, far_level);
    start = far_node;
  }
  return best;
}

std::vector<NodeId> degree_histogram(const Csr& graph) {
  std::vector<NodeId> buckets(1, 0);
  for (NodeId s = 0; s < graph.num_slots(); ++s) {
    if (graph.is_hole(s)) continue;
    const NodeId d = graph.degree(s);
    const std::size_t bucket =
        d == 0 ? 0 : 32 - static_cast<std::size_t>(__builtin_clz(d));
    if (bucket >= buckets.size()) buckets.resize(bucket + 1, 0);
    buckets[bucket]++;
  }
  return buckets;
}

std::vector<double> metric_quantiles(const Csr& graph,
                                     std::span<const double> per_slot,
                                     std::span<const double> quantiles) {
  std::vector<double> values;
  values.reserve(graph.num_nodes());
  for (NodeId s = 0; s < graph.num_slots(); ++s) {
    if (!graph.is_hole(s)) values.push_back(per_slot[s]);
  }
  std::sort(values.begin(), values.end());
  std::vector<double> out;
  out.reserve(quantiles.size());
  for (double q : quantiles) {
    if (values.empty()) {
      out.push_back(0.0);
      continue;
    }
    const auto index = static_cast<std::size_t>(
        std::min<double>(q * static_cast<double>(values.size()),
                         static_cast<double>(values.size() - 1)));
    out.push_back(values[index]);
  }
  return out;
}

NodeId weakly_connected_components(const Csr& graph) {
  const Csr und = graph.symmetrized();
  const NodeId slots = und.num_slots();
  std::vector<std::uint8_t> visited(slots, 0);
  NodeId components = 0;
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < slots; ++s) {
    if (visited[s] || und.is_hole(s)) continue;
    ++components;
    visited[s] = 1;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (NodeId v : und.neighbors(u)) {
        if (!visited[v]) {
          visited[v] = 1;
          stack.push_back(v);
        }
      }
    }
  }
  return components;
}

}  // namespace graffix
