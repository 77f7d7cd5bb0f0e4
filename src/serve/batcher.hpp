// Query batching for `graffix serve`.
//
// K single-source SSSP/BFS queries against the same snapshot share one
// Bellman-Ford round schedule. The batcher groups compatible queries
// (same snapshot, same algorithm) into such multi-source units, capped at
// kMaxBatchLanes, and run_multi_source answers a unit with a data-driven
// frontier kernel over the snapshot's CSR (Gunrock's advance, with
// GraphBLAST's batch-wide traversal mask): each vertex carries a lane
// mask of the lanes that improved there last round, and a round relaxes
// only those (vertex, lane) pairs, or all of a vertex's active lanes in
// one branch-free pass when enough of them are marked.
//
// Byte-identity with per-query serial execution (the differential test's
// contract) holds because each lane's relaxation is an independent
// monotone min-plus fixpoint: lanes only ever *improve* their own plane
// under strict `<`, reads come from the round-stable plane (Jacobi), and
// a (vertex, lane) pair whose value did not change last round already
// pushed that value, so relaxing it again is a no-op. The fixpoint
// plus the per-lane last-changed round are therefore pure functions of
// (graph, source), whatever else shares the unit. Response payloads carry
// only per-lane data — never the shared round count or timing — so
// batched and serial renderings are byte-equal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "serve/protocol.hpp"

namespace graffix::serve {

/// Lanes one multi-source unit may carry. 32 keeps the K-wide attribute
/// planes cache-resident for the scale-16 serving preset, and one
/// `uint32_t` lane mask per vertex covers a whole unit.
inline constexpr std::uint32_t kMaxBatchLanes = 32;

/// One published copy-on-write graph variant. Immutable after
/// construction; queries hold it by shared_ptr, so a superseded snapshot
/// is freed exactly when its last in-flight reader drains.
struct GraphSnapshot {
  std::string variant;
  std::uint64_t version = 0;
  Csr graph;
  /// Divergence-transform processing order for the PR/BC runners;
  /// empty = slot order.
  std::vector<NodeId> warp_order;

  /// Bytes this snapshot keeps resident (graph + order).
  [[nodiscard]] std::size_t resident_bytes() const;
};

[[nodiscard]] std::shared_ptr<const GraphSnapshot> make_snapshot(
    std::string variant, std::uint64_t version, Csr graph,
    std::vector<NodeId> warp_order);

/// Groups a wave of parsed requests into execution units, preserving
/// arrival order of unit leaders. `snapshot_of(i)` must return a stable
/// grouping key (the snapshot pointer) for wave index i.
///
/// Batchable: op Query with alg sssp/bfs — grouped by (snapshot, alg)
/// up to `max_lanes` lanes per unit. Everything else is a singleton.
[[nodiscard]] std::vector<std::vector<std::size_t>> form_units(
    std::span<const Request* const> wave,
    const std::function<const void*(std::size_t)>& snapshot_of,
    std::uint32_t max_lanes);

/// Per-lane result of a multi-source run. `values` aligns with the
/// lane's echo nodes; unreached vertices render as "inf" (SSSP) or -1
/// (BFS level).
struct LaneOutcome {
  bool expired = false;        // deadline fired mid-run; lane frozen
  std::uint64_t digest = 0;    // FNV-1a over the lane's full plane
  NodeId reached = 0;          // vertices with a finite value
  std::uint32_t rounds = 0;    // last round this lane improved
  std::vector<double> values;  // echo values, lane-local
};

struct MultiSourceOutcome {
  std::vector<LaneOutcome> lanes;
};

struct LaneSpec {
  NodeId source = 0;
  std::span<const NodeId> echo_nodes;
  /// Polled at round boundaries; true freezes the lane and marks it
  /// expired. Null = no deadline.
  std::function<bool()> expired;
};

/// Runs a K-lane SSSP/BFS fixpoint (K <= kMaxBatchLanes) over
/// `snap.graph`. Sources and echo nodes must be in range and sources
/// non-hole — validated by the caller.
[[nodiscard]] MultiSourceOutcome run_multi_source(const GraphSnapshot& snap,
                                                  QueryAlg alg,
                                                  std::span<const LaneSpec> lanes);

}  // namespace graffix::serve
