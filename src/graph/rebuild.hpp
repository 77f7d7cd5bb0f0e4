// Shared parallel CSR rebuild path.
//
// Every Graffix transform ends the same way: a new Csr whose adjacency is
// the old adjacency plus some per-node extra arcs (divergence, latency),
// or a fully rewritten per-node arc list (replication, symmetrization).
// Rebuilding that Csr serially dominates preprocessing wall-time at scale
// (Table 5), so the rebuild is centralized here: parallel per-node counts
// -> serial exclusive scan -> parallel per-node scatter.
// The output is bit-identical for every thread count, because each slot's
// final edge range is fixed by the scan before any thread writes it (the
// determinism-under-parallelism contract; see DESIGN.md §7).
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "util/types.hpp"

namespace graffix {

/// One arc produced by a transform: insertion target plus the weight the
/// rebuilt graph should carry for it (ignored on unweighted rebuilds).
struct ExtraArc {
  NodeId dst;
  Weight w;
};

/// Rebuilds `base` with `extra[s]` appended (in order) to slot s's
/// adjacency. `extra` must be empty or have base.num_slots() entries.
/// Weights are materialized iff base.has_weights(); the hole mask is
/// carried over from `base` unchanged.
[[nodiscard]] Csr rebuild_with_extras(
    const Csr& base, std::span<const std::vector<ExtraArc>> extra);

/// Memory-lean overload: consumes `base` and frees its arrays in a
/// staggered order — the base targets are released before the new
/// weights array is allocated — so the rebuild peak is roughly
/// max(base, new) + the larger of the two edge arrays instead of
/// base + new. Byte-identical output to the const overload
/// (differential-tested); this is what keeps the paper-scale
/// transform benches under the 2x peak-RSS gate (DESIGN.md §9).
[[nodiscard]] Csr rebuild_with_extras(
    Csr&& base, std::span<const std::vector<ExtraArc>> extra);

/// Builds a Csr directly from per-slot arc lists (for transforms that
/// rewrite adjacency wholesale). `holes` must be empty or match
/// adj.size(); `weighted` selects whether arc weights are materialized.
[[nodiscard]] Csr rebuild_from_adjacency(
    std::span<const std::vector<ExtraArc>> adj, bool weighted,
    std::vector<std::uint8_t> holes);

}  // namespace graffix
