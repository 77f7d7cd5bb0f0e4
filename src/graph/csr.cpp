#include "graph/csr.hpp"

#include <algorithm>
#include <numeric>

#include "graph/rebuild.hpp"
#include "util/arena.hpp"
#include "util/parallel.hpp"
#include "util/prefix_sum.hpp"

namespace graffix {

namespace {

/// Below this edge count the parallel transpose's per-thread histograms
/// cost more than they save; fall back to the single-pass serial path.
constexpr std::size_t kParallelTransposeMinEdges = 1u << 14;

}  // namespace

Csr::Csr(std::vector<EdgeId> offsets, std::vector<NodeId> targets,
         std::vector<Weight> weights, std::vector<std::uint8_t> holes)
    : offsets_(std::move(offsets)),
      targets_(std::move(targets)),
      weights_(std::move(weights)),
      holes_(std::move(holes)) {
  GRAFFIX_CHECK(!offsets_.empty(), "offsets must have at least one entry");
  GRAFFIX_CHECK(offsets_.back() == targets_.size(),
                "offsets/targets mismatch: %llu vs %zu",
                static_cast<unsigned long long>(offsets_.back()),
                targets_.size());
  GRAFFIX_CHECK(weights_.empty() || weights_.size() == targets_.size(),
                "weights size mismatch");
  GRAFFIX_CHECK(holes_.empty() || holes_.size() == offsets_.size() - 1,
                "hole mask size mismatch");
  const NodeId slots = num_slots();
  if (holes_.empty()) {
    num_nodes_ = slots;
  } else {
    NodeId real = 0;
    for (NodeId s = 0; s < slots; ++s) {
      if (holes_[s] == 0) ++real;
    }
    num_nodes_ = real;
  }
}

std::size_t Csr::memory_bytes() const {
  // capacity(), not size(): the vectors own capacity() elements of heap
  // whether or not they are in use, and the bench memory gates compare
  // this number against RSS — undercounting slack would make the 2x
  // peak-memory ceiling look tighter than it is.
  return offsets_.capacity() * sizeof(EdgeId) +
         targets_.capacity() * sizeof(NodeId) +
         weights_.capacity() * sizeof(Weight) +
         holes_.capacity() * sizeof(std::uint8_t);
}

Csr::OwnedParts Csr::take_parts() && {
  OwnedParts parts{std::move(offsets_), std::move(targets_),
                   std::move(weights_), std::move(holes_)};
  offsets_.assign(1, 0);  // restore the empty-graph invariant
  targets_.clear();
  weights_.clear();
  holes_.clear();
  num_nodes_ = 0;
  return parts;
}

Csr Csr::transpose() const {
  const NodeId slots = num_slots();
  const std::size_t m = targets_.size();
  // Algorithm selection keys on the workers that can actually run
  // concurrently: the block-histogram path does strictly more work than
  // the serial counting sort, so picking it under an oversubscribed
  // pool (logical threads > cores) or inside a pool task (one worker)
  // would pay its overhead with no parallelism to recoup it. Both paths
  // are bit-identical.
  const int threads = effective_workers();

  if (threads <= 1 || m < kParallelTransposeMinEdges) {
    // Serial counting sort: within each reversed row, arcs appear in
    // increasing source order (and original edge order per source).
    std::vector<EdgeId> counts(static_cast<std::size_t>(slots) + 1, 0);
    for (NodeId t : targets_) counts[static_cast<std::size_t>(t) + 1]++;
    std::partial_sum(counts.begin(), counts.end(), counts.begin());
    std::vector<NodeId> rtargets(m);
    std::vector<Weight> rweights(weights_.empty() ? 0 : m);
    ArenaBuffer<EdgeId> cursor(slots);
    std::copy(counts.begin(), counts.end() - 1, cursor.begin());
    for (NodeId u = 0; u < slots; ++u) {
      const EdgeId lo = offsets_[u];
      const EdgeId hi = offsets_[u + 1];
      for (EdgeId e = lo; e < hi; ++e) {
        const NodeId v = targets_[e];
        const EdgeId pos = cursor[v]++;
        rtargets[pos] = u;
        if (!rweights.empty()) rweights[pos] = weights_[e];
      }
    }
    return Csr(std::move(counts), std::move(rtargets), std::move(rweights),
               holes_);
  }

  // Parallel counting sort over contiguous source blocks. Per-(block,
  // target) histograms fix every edge's final position before the
  // scatter, so the output is bit-identical to the serial path for any
  // thread count. Work is indexed by block id (not thread id) so the
  // result does not depend on how many pool workers join.
  const auto T = static_cast<std::size_t>(threads);
  const std::size_t chunk = (static_cast<std::size_t>(slots) + T - 1) / T;
  const auto block_range = [&](std::size_t b) {
    const auto lo = static_cast<NodeId>(
        std::min(b * chunk, static_cast<std::size_t>(slots)));
    const auto hi = static_cast<NodeId>(
        std::min(lo + chunk, static_cast<std::size_t>(slots)));
    return std::pair<NodeId, NodeId>{lo, hi};
  };
  // Arena-pooled: this T*slots histogram is the transpose's dominant
  // scratch and is re-acquired on every call in the transform pipeline.
  ArenaBuffer<EdgeId> block_counts(T * slots, EdgeId{0});
  std::vector<EdgeId> offsets(static_cast<std::size_t>(slots) + 1, 0);
  std::vector<NodeId> rtargets(m);
  std::vector<Weight> rweights(weights_.empty() ? 0 : m);

  parallel_for(std::size_t{0}, T, [&](std::size_t b) {
    const auto [lo, hi] = block_range(b);
    EdgeId* counts = block_counts.data() + b * slots;
    for (NodeId u = lo; u < hi; ++u) {
      for (EdgeId e = offsets_[u]; e < offsets_[u + 1]; ++e) {
        counts[targets_[e]]++;
      }
    }
  });
  parallel_for(NodeId{0}, slots, [&](NodeId v) {
    EdgeId total = 0;
    for (std::size_t b = 0; b < T; ++b) {
      total += block_counts[b * slots + v];
    }
    offsets[v] = total;
  });
  exclusive_scan_inplace(std::span<EdgeId>(offsets));
  // Convert each block's count into its running write base.
  parallel_for(NodeId{0}, slots, [&](NodeId v) {
    EdgeId running = offsets[v];
    for (std::size_t b = 0; b < T; ++b) {
      const EdgeId c = block_counts[b * slots + v];
      block_counts[b * slots + v] = running;
      running += c;
    }
  });
  parallel_for(std::size_t{0}, T, [&](std::size_t b) {
    const auto [lo, hi] = block_range(b);
    EdgeId* cursor = block_counts.data() + b * slots;
    for (NodeId u = lo; u < hi; ++u) {
      for (EdgeId e = offsets_[u]; e < offsets_[u + 1]; ++e) {
        const NodeId v = targets_[e];
        const EdgeId pos = cursor[v]++;
        rtargets[pos] = u;
        if (!rweights.empty()) rweights[pos] = weights_[e];
      }
    }
  });
  return Csr(std::move(offsets), std::move(rtargets), std::move(rweights),
             holes_);
}

Csr Csr::symmetrized() const {
  const NodeId slots = num_slots();
  const bool weighted = has_weights();
  // Row u of the undirected view = out-neighbors of u plus in-neighbors
  // of u (from the transpose), sorted by (dst, weight) with duplicate
  // destinations collapsed onto the cheapest arc — the same (src, dst,
  // weight) order and KeepMinWeight dedup GraphBuilder would produce.
  const Csr rev = transpose();
  std::vector<std::vector<ExtraArc>> und(slots);
  parallel_for_dynamic(NodeId{0}, slots, [&](NodeId u) {
    auto& list = und[u];
    const auto out = neighbors(u);
    const auto in = rev.neighbors(u);
    list.reserve(out.size() + in.size());
    const auto out_w = weighted ? edge_weights(u) : std::span<const Weight>{};
    const auto in_w = weighted ? rev.edge_weights(u) : std::span<const Weight>{};
    for (std::size_t i = 0; i < out.size(); ++i) {
      list.push_back({out[i], weighted ? out_w[i] : Weight{1}});
    }
    for (std::size_t i = 0; i < in.size(); ++i) {
      list.push_back({in[i], weighted ? in_w[i] : Weight{1}});
    }
    std::sort(list.begin(), list.end(), [](const ExtraArc& a, const ExtraArc& b) {
      if (a.dst != b.dst) return a.dst < b.dst;
      return a.w < b.w;
    });
    list.erase(std::unique(list.begin(), list.end(),
                           [](const ExtraArc& a, const ExtraArc& b) {
                             return a.dst == b.dst;
                           }),
               list.end());
  });
  // Hole rows have no arcs in either direction (validate() forbids real
  // nodes pointing at holes upstream), so the mask carries over as-is.
  return rebuild_from_adjacency(und, weighted, {holes_.begin(), holes_.end()});
}

}  // namespace graffix
