#include "algorithms/bc.hpp"

#include <algorithm>

#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace graffix {

namespace {

/// One Brandes source pass; accumulates dependencies into `bc`.
void brandes_source(const Csr& graph, NodeId source, std::vector<double>& bc,
                    std::vector<NodeId>& level, std::vector<double>& sigma,
                    std::vector<double>& delta, std::vector<NodeId>& order) {
  const NodeId slots = graph.num_slots();
  std::fill(level.begin(), level.end(), kInvalidNode);
  std::fill(sigma.begin(), sigma.end(), 0.0);
  std::fill(delta.begin(), delta.end(), 0.0);
  order.clear();

  // Forward pass: BFS DAG with path counts.
  level[source] = 0;
  sigma[source] = 1.0;
  std::size_t head = 0;
  order.push_back(source);
  while (head < order.size()) {
    const NodeId u = order[head++];
    for (NodeId v : graph.neighbors(u)) {
      if (level[v] == kInvalidNode) {
        level[v] = level[u] + 1;
        order.push_back(v);
      }
      if (level[v] == level[u] + 1) {
        sigma[v] += sigma[u];
      }
    }
  }

  // Backward pass in reverse BFS order: delta accumulation (Eq. 1).
  for (std::size_t i = order.size(); i-- > 0;) {
    const NodeId u = order[i];
    for (NodeId v : graph.neighbors(u)) {
      if (level[v] == level[u] + 1 && sigma[v] > 0.0) {
        delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v]);
      }
    }
    if (u != source) bc[u] += delta[u];
  }
  (void)slots;
}

}  // namespace

std::vector<double> betweenness_centrality(const Csr& graph,
                                           std::span<const NodeId> sources) {
  const NodeId slots = graph.num_slots();
  std::vector<double> bc(slots, 0.0);

  // Sources are partitioned into fixed-size blocks keyed by block id
  // (never by thread id, DESIGN.md §7): each block accumulates its
  // sources in source order into a private per-slot array, and blocks
  // are absorbed into `bc` in ascending block order, so the FP sum
  // grouping — and therefore the output — is bit-identical at every
  // thread count. (Summing per-thread partials in completion order,
  // under a lock, would not be.)
  // Blocks run in bounded-memory waves: a wave holds at most kWave
  // per-slot accumulators regardless of the source count.
  constexpr std::size_t kSourcesPerBlock = 32;
  constexpr std::size_t kWave = 64;
  const std::size_t num_blocks =
      (sources.size() + kSourcesPerBlock - 1) / kSourcesPerBlock;
  std::vector<std::vector<double>> block_bc(std::min(kWave, num_blocks));
  for (std::size_t wave_lo = 0; wave_lo < num_blocks; wave_lo += kWave) {
    const std::size_t wave_hi = std::min(wave_lo + kWave, num_blocks);
    parallel_for_dynamic(
        wave_lo, wave_hi,
        [&](std::size_t blk) {
          auto& local_bc = block_bc[blk - wave_lo];
          local_bc.assign(slots, 0.0);
          // graffix-lint: allow(R6) per-block BFS scratch amortized over 32 sources; pooling across blocks would share state between concurrent tasks
          std::vector<NodeId> level(slots);
          // graffix-lint: allow(R6) per-block scratch, same amortization as `level` above
          std::vector<double> sigma(slots);
          // graffix-lint: allow(R6) per-block scratch, same amortization as `level` above
          std::vector<double> delta(slots);
          std::vector<NodeId> order;
          // graffix-lint: allow(R6) one reserve per 32-source block; the per-source push_backs in brandes_source stay within it
          order.reserve(slots);
          const std::size_t lo = blk * kSourcesPerBlock;
          const std::size_t hi =
              std::min(lo + kSourcesPerBlock, sources.size());
          for (std::size_t i = lo; i < hi; ++i) {
            brandes_source(graph, sources[i], local_bc, level, sigma, delta,
                           order);
          }
        },
        1);
    // Absorb the wave parallel across slots: each slot's chain folds the
    // blocks in ascending block order — the same per-slot FP grouping
    // the serial blk-outer/s-inner loop produced — and distinct slots
    // never interact, so the absorb parallelizes without reassociating
    // anything (the serial walk used to cost O(waves * blocks * slots)
    // on one core).
    parallel_for(NodeId{0}, slots, [&](NodeId s) {
      double acc = bc[s];
      for (std::size_t blk = wave_lo; blk < wave_hi; ++blk) {
        acc += block_bc[blk - wave_lo][s];
      }
      bc[s] = acc;
    });
  }
  return bc;
}

std::vector<double> betweenness_centrality_all(const Csr& graph) {
  std::vector<NodeId> sources;
  const NodeId slots = graph.num_slots();
  sources.reserve(graph.num_nodes());
  for (NodeId s = 0; s < slots; ++s) {
    if (!graph.is_hole(s)) sources.push_back(s);
  }
  return betweenness_centrality(graph, sources);
}

std::vector<NodeId> sample_bc_sources(const Csr& graph, std::size_t count,
                                      std::uint64_t seed) {
  std::vector<NodeId> candidates;
  const NodeId slots = graph.num_slots();
  for (NodeId s = 0; s < slots; ++s) {
    if (!graph.is_hole(s) && graph.degree(s) > 0) candidates.push_back(s);
  }
  if (candidates.size() <= count) return candidates;
  Pcg32 rng = make_stream(seed, 0xbc);
  // Partial Fisher-Yates for the first `count` entries.
  for (std::size_t i = 0; i < count; ++i) {
    const auto j =
        i + rng.next_bounded(static_cast<std::uint32_t>(candidates.size() - i));
    std::swap(candidates[i], candidates[j]);
  }
  candidates.resize(count);
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

}  // namespace graffix
