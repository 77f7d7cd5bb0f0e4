#include "graph/rebuild.hpp"

#include "util/macros.hpp"
#include "util/parallel.hpp"
#include "util/prefix_sum.hpp"

namespace graffix {

Csr rebuild_with_extras(const Csr& base,
                        std::span<const std::vector<ExtraArc>> extra) {
  const NodeId n = base.num_slots();
  GRAFFIX_CHECK(extra.empty() || extra.size() == n,
                "extra-arc list count %zu != slot count %u", extra.size(), n);
  const bool weighted = base.has_weights();

  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  parallel_for(NodeId{0}, n, [&](NodeId u) {
    offsets[u] = base.degree(u) + (extra.empty() ? 0 : extra[u].size());
  });
  exclusive_scan_inplace(std::span<EdgeId>(offsets));

  std::vector<NodeId> targets(offsets.back());
  std::vector<Weight> weights(weighted ? offsets.back() : 0);
  parallel_for_dynamic(NodeId{0}, n, [&](NodeId u) {
    EdgeId pos = offsets[u];
    const auto nbrs = base.neighbors(u);
    const auto wts =
        weighted ? base.edge_weights(u) : std::span<const Weight>{};
    for (std::size_t i = 0; i < nbrs.size(); ++i, ++pos) {
      targets[pos] = nbrs[i];
      if (weighted) weights[pos] = wts[i];
    }
    if (!extra.empty()) {
      for (const ExtraArc& a : extra[u]) {
        targets[pos] = a.dst;
        if (weighted) weights[pos] = a.w;
        ++pos;
      }
    }
  });
  return Csr(std::move(offsets), std::move(targets), std::move(weights),
             {base.holes().begin(), base.holes().end()});
}

Csr rebuild_with_extras(Csr&& base,
                        std::span<const std::vector<ExtraArc>> extra) {
  const NodeId n = base.num_slots();
  GRAFFIX_CHECK(extra.empty() || extra.size() == n,
                "extra-arc list count %zu != slot count %u", extra.size(), n);
  const bool weighted = base.has_weights();
  Csr::OwnedParts parts = std::move(base).take_parts();
  const std::vector<EdgeId>& bofs = parts.offsets;

  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  parallel_for(NodeId{0}, n, [&](NodeId u) {
    offsets[u] = (bofs[u + 1] - bofs[u]) +
                 (extra.empty() ? 0 : extra[u].size());
  });
  exclusive_scan_inplace(std::span<EdgeId>(offsets));

  std::vector<NodeId> targets(offsets.back());
  parallel_for_dynamic(NodeId{0}, n, [&](NodeId u) {
    EdgeId pos = offsets[u];
    for (EdgeId e = bofs[u]; e < bofs[u + 1]; ++e, ++pos) {
      targets[pos] = parts.targets[e];
    }
    if (!extra.empty()) {
      for (const ExtraArc& a : extra[u]) {
        targets[pos++] = a.dst;
      }
    }
  });
  // Staggered free: the base targets die BEFORE the new weights array
  // exists, so the two edge arrays never coexist twice over — this is
  // the overload's whole point.
  std::vector<NodeId>().swap(parts.targets);

  std::vector<Weight> weights(weighted ? offsets.back() : 0);
  if (weighted) {
    parallel_for_dynamic(NodeId{0}, n, [&](NodeId u) {
      EdgeId pos = offsets[u];
      for (EdgeId e = bofs[u]; e < bofs[u + 1]; ++e, ++pos) {
        weights[pos] = parts.weights[e];
      }
      if (!extra.empty()) {
        for (const ExtraArc& a : extra[u]) {
          weights[pos++] = a.w;
        }
      }
    });
    std::vector<Weight>().swap(parts.weights);
  }
  return Csr(std::move(offsets), std::move(targets), std::move(weights),
             std::move(parts.holes));
}

Csr rebuild_from_adjacency(std::span<const std::vector<ExtraArc>> adj,
                           bool weighted, std::vector<std::uint8_t> holes) {
  const auto n = static_cast<NodeId>(adj.size());
  GRAFFIX_CHECK(holes.empty() || holes.size() == adj.size(),
                "hole mask size %zu != slot count %u", holes.size(), n);

  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  parallel_for(NodeId{0}, n, [&](NodeId u) { offsets[u] = adj[u].size(); });
  exclusive_scan_inplace(std::span<EdgeId>(offsets));

  std::vector<NodeId> targets(offsets.back());
  std::vector<Weight> weights(weighted ? offsets.back() : 0);
  parallel_for_dynamic(NodeId{0}, n, [&](NodeId u) {
    EdgeId pos = offsets[u];
    for (const ExtraArc& a : adj[u]) {
      targets[pos] = a.dst;
      if (weighted) weights[pos] = a.w;
      ++pos;
    }
  });
  return Csr(std::move(offsets), std::move(targets), std::move(weights),
             std::move(holes));
}

}  // namespace graffix
