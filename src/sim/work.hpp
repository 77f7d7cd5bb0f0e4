// Work decomposition for the SIMT engine.
//
// One WorkItem is what one lane processes during a sweep: a source slot
// plus a contiguous range of its adjacency. The plain strategies emit one
// item per vertex; the Tigr-like strategy splits high-degree vertices into
// several items (virtual nodes) so each lane's range is bounded.
//
// Work lists built from an *invariant* slot list (the warp order used by
// every topology-driven sweep) are themselves invariant whenever the
// strategy's decomposition is a pure function of (graph, slots) — see
// baselines::Strategy::work_is_slot_invariant. Runners exploit this by
// building such layouts once per driver (and once per cluster in the
// shared Layout) and reusing them across iterations, each with a
// BlockMemo of its warp blocks' accounting (sim/engine.hpp); a cached
// layout is only valid for the exact (graph, order, strategy) triple it
// was built from, so swapping any of those means building a new driver.
//
// Work lists built from a *frontier* (data-driven sweeps) are rebuilt per
// sweep from the active list. Frontiers produced inside a sweep — SSSP's
// changed set, BC forward's next wave — are appended by functors that the
// engine calls in serial warp/lane order (DESIGN.md §7), so the slot list
// a frontier work list is built from is byte-identical at any thread
// count or chunking, and so is the resulting WorkItem layout.
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace graffix::sim {

struct WorkItem {
  NodeId src;        // slot whose edges this lane walks
  EdgeId edge_begin; // first edge index in the Csr targets array
  NodeId edge_count; // number of edges this item covers
};

/// How lanes' loads from the edges array coalesce.
enum class EdgeLoadMode : std::uint8_t {
  /// Each lane streams its own adjacency range: segments counted from the
  /// actual byte addresses (the common CSR layout).
  Csr,
  /// Tigr-style edge-array coalescing: the edge array is laid out so that
  /// lanes of a warp read consecutive words; one transaction per active
  /// step regardless of source scatter.
  IdealWarpPacked,
};

/// Which memory space serves node-attribute accesses during a sweep.
enum class AttrSpace : std::uint8_t {
  Global,
  Shared,  // cluster phases: all attributes resident in shared memory
};

}  // namespace graffix::sim
