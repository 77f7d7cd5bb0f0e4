// Driver for the full §2 coalescing transform: renumber, then replicate.
#pragma once

#include "transform/replicate.hpp"

namespace graffix::transform {

struct CoalescingResult {
  Csr graph;                 // renumbered + replicated
  RenumberResult renumber;   // old-id <-> slot mapping
  ReplicaMap replicas;
  std::uint64_t edges_moved = 0;
  std::uint64_t edges_added = 0;
  NodeId holes_total = 0;
  NodeId holes_filled = 0;

  /// Extra space w.r.t. the original graph (Table 5's space column).
  double extra_space_fraction = 0.0;

  /// Wall-clock seconds of the replication greedy phase.
  double greedy_seconds = 0.0;
  /// Always zero: perfbench's transform.batched_share still reads it, and
  /// the benchmark change that drops that metric deletes this field.
  struct { std::uint64_t batched = 0, serial_steps = 0; } batching;

  /// Projects a per-slot attribute vector back to original node ids.
  template <typename T>
  [[nodiscard]] std::vector<T> project(std::span<const T> attr_slots) const {
    return project_to_nodes<T>(renumber, attr_slots);
  }
};

/// Runs the coalescing transform. With knobs.connectedness_threshold > 1
/// no replication happens and the result is an exact isomorph (useful for
/// ablation and tests).
[[nodiscard]] CoalescingResult coalescing_transform(const Csr& graph,
                                                    const CoalescingKnobs& knobs);

}  // namespace graffix::transform
