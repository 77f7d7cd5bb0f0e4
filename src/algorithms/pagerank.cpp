#include "algorithms/pagerank.hpp"

#include <cmath>

#include "util/parallel.hpp"

namespace graffix {

PagerankResult pagerank(const Csr& graph, const PagerankParams& params) {
  const NodeId slots = graph.num_slots();
  const NodeId n = graph.num_nodes();
  PagerankResult result;
  result.rank.assign(slots, 0.0);
  if (n == 0) return result;

  const Csr reverse = graph.transpose();
  std::vector<NodeId> out_degree(slots);
  for (NodeId s = 0; s < slots; ++s) out_degree[s] = graph.degree(s);

  std::vector<double> rank(slots, 0.0);
  std::vector<double> next(slots, 0.0);
  const double init = 1.0 / n;
  for (NodeId s = 0; s < slots; ++s) {
    if (!graph.is_hole(s)) rank[s] = init;
  }

  const double base = (1.0 - params.damping) / n;
  for (std::uint32_t iter = 0; iter < params.max_iterations; ++iter) {
    ++result.iterations;
    // Dangling nodes leak their rank uniformly. This sum and `delta`
    // below fold serially in slot order: the rounded totals feed every
    // rank and the iteration count, so their grouping must not follow
    // the thread count (DESIGN.md §7).
    double dangling = 0.0;
    for (NodeId s = 0; s < slots; ++s) {
      if (!graph.is_hole(s) && out_degree[s] == 0) dangling += rank[s];
    }
    const double dangling_share = params.damping * dangling / n;
    parallel_for_dynamic(NodeId{0}, slots, [&](NodeId v) {
      if (graph.is_hole(v)) return;
      double sum = 0.0;
      for (NodeId u : reverse.neighbors(v)) {
        sum += rank[u] / out_degree[u];
      }
      next[v] = base + dangling_share + params.damping * sum;
    });
    double delta = 0.0;
    for (NodeId s = 0; s < slots; ++s) {
      if (!graph.is_hole(s)) delta += std::abs(next[s] - rank[s]);
    }
    rank.swap(next);
    if (delta < params.tolerance) break;
  }
  result.rank = std::move(rank);
  return result;
}

}  // namespace graffix
