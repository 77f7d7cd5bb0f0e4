#include "serve/batcher.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "util/macros.hpp"

namespace graffix::serve {

static_assert(kMaxBatchLanes <= 32, "a unit's lane mask is one uint32_t");

std::size_t GraphSnapshot::resident_bytes() const {
  return graph.memory_bytes() + warp_order.size() * sizeof(NodeId);
}

std::shared_ptr<const GraphSnapshot> make_snapshot(
    std::string variant, std::uint64_t version, Csr graph,
    std::vector<NodeId> warp_order) {
  auto snap = std::make_shared<GraphSnapshot>();
  snap->variant = std::move(variant);
  snap->version = version;
  snap->graph = std::move(graph);
  snap->warp_order = std::move(warp_order);
  return snap;
}

std::vector<std::vector<std::size_t>> form_units(
    std::span<const Request* const> wave,
    const std::function<const void*(std::size_t)>& snapshot_of,
    std::uint32_t max_lanes) {
  if (max_lanes == 0) max_lanes = 1;
  if (max_lanes > kMaxBatchLanes) max_lanes = kMaxBatchLanes;
  std::vector<std::vector<std::size_t>> units;
  // Open group per (snapshot, alg) key; a handful of live variants means
  // a linear scan beats any map here.
  struct Open {
    const void* snap;
    QueryAlg alg;
    std::size_t unit;
  };
  std::vector<Open> open;
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const Request& req = *wave[i];
    const bool batchable =
        req.op == Op::Query &&
        (req.alg == QueryAlg::Sssp || req.alg == QueryAlg::Bfs);
    if (!batchable) {
      units.push_back({i});
      continue;
    }
    const void* snap = snapshot_of(i);
    Open* slot = nullptr;
    for (Open& o : open) {
      if (o.snap == snap && o.alg == req.alg) { slot = &o; break; }
    }
    if (slot != nullptr && units[slot->unit].size() < max_lanes) {
      units[slot->unit].push_back(i);
      continue;
    }
    units.push_back({i});
    if (slot != nullptr) {
      slot->unit = units.size() - 1;
    } else {
      open.push_back({snap, req.alg, units.size() - 1});
    }
  }
  return units;
}

MultiSourceOutcome run_multi_source(const GraphSnapshot& snap, QueryAlg alg,
                                    std::span<const LaneSpec> lanes) {
  MultiSourceOutcome out;
  const std::size_t lane_count = lanes.size();
  out.lanes.resize(lane_count);
  if (lane_count == 0) return out;
  GRAFFIX_CHECK(lane_count <= kMaxBatchLanes, "%zu lanes in one unit",
                lane_count);

  const Csr& graph = snap.graph;
  const std::size_t slots = graph.num_slots();
  const std::span<const EdgeId> offsets = graph.offsets();
  const std::span<const NodeId> targets = graph.targets();
  const std::span<const Weight> weights = graph.weights();
  const bool weighted = alg == QueryAlg::Sssp && !weights.empty();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto row_of = [lane_count](NodeId v) {
    return static_cast<std::size_t>(v) * lane_count;
  };

  // Lane-major planes: dist[slot * K + k]. One cache line serves all
  // lanes of a vertex. Every relaxation reads the round-stable `dist` and
  // writes `next`; rows that improved are copied back after the round,
  // so the two planes are equal at every round boundary.
  std::vector<double> dist(slots * lane_count, kInf);
  // improved[v] marks the lanes whose value at v changed last round;
  // `frontier` lists the vertices with a nonzero mark.
  std::vector<std::uint32_t> improved(slots, 0);
  std::vector<NodeId> frontier;
  for (std::size_t k = 0; k < lane_count; ++k) {
    const NodeId s = lanes[k].source;
    dist[row_of(s) + k] = 0.0;
    if (improved[s] == 0) frontier.push_back(s);
    improved[s] |= std::uint32_t{1} << k;
  }
  std::vector<double> next = dist;
  // Vertices relaxed into this round, each listed once.
  std::vector<std::uint8_t> touched(slots, 0);
  std::vector<NodeId> touched_list;
  std::vector<double> pushed(lane_count);

  std::uint32_t active = ~std::uint32_t{0} >> (32 - lane_count);
  std::vector<std::uint32_t> last_round(lane_count, 0);

  // Bellman-Ford needs at most |V|-1 improving rounds on nonnegative
  // weights; the cap is a belt against a (bug-induced) livelock.
  const std::uint32_t round_cap = static_cast<std::uint32_t>(slots) + 2;
  std::uint32_t round = 0;
  while (round < round_cap) {
    for (std::size_t k = 0; k < lane_count; ++k) {
      const std::uint32_t bit = std::uint32_t{1} << k;
      if ((active & bit) != 0 && lanes[k].expired && lanes[k].expired()) {
        active &= ~bit;
        out.lanes[k].expired = true;
      }
    }
    if (active == 0) break;

    ++round;
    for (const NodeId u : frontier) {
      const std::uint32_t push = improved[u] & active;
      improved[u] = 0;
      if (push == 0) continue;
      const double* row = &dist[row_of(u)];
      // With a quarter or more of the lanes marked, one branch-free pass
      // over all lanes beats visiting the marked ones: an unmarked active
      // lane's relaxation is a no-op (batcher.hpp), and a frozen lane
      // pushes +inf, which never improves anything. As in the full sweep,
      // only finite values push: a -inf weight can make a value -inf.
      const bool dense =
          static_cast<std::size_t>(std::popcount(push)) * 4 >= lane_count;
      if (dense) {
        for (std::size_t k = 0; k < lane_count; ++k) {
          const bool live = ((active >> k) & 1) != 0 && std::isfinite(row[k]);
          pushed[k] = live ? row[k] : kInf;
        }
      }
      for (EdgeId e = offsets[u]; e < offsets[u + 1]; ++e) {
        const NodeId v = targets[e];
        const double step = weighted ? static_cast<double>(weights[e]) : 1.0;
        double* nrow = &next[row_of(v)];
        // std::min(a, b) keeps a unless b < a: the strict-< relaxation.
        if (dense) {
          for (std::size_t k = 0; k < lane_count; ++k) {
            nrow[k] = std::min(nrow[k], pushed[k] + step);
          }
        } else {
          for (std::uint32_t m = push; m != 0; m &= m - 1) {
            const int k = std::countr_zero(m);
            if (std::isfinite(row[k])) {
              nrow[k] = std::min(nrow[k], row[k] + step);
            }
          }
        }
        if (touched[v] == 0) {
          touched[v] = 1;
          touched_list.push_back(v);
        }
      }
    }
    // A lane improved at v exactly where next now reads below dist.
    std::uint32_t changed = 0;
    frontier.clear();
    for (const NodeId v : touched_list) {
      touched[v] = 0;
      const double* nrow = &next[row_of(v)];
      double* row = &dist[row_of(v)];
      std::uint32_t gained = 0;
      for (std::size_t k = 0; k < lane_count; ++k) {
        gained |= static_cast<std::uint32_t>(nrow[k] < row[k]) << k;
      }
      if (gained == 0) continue;
      std::copy_n(nrow, lane_count, row);
      improved[v] = gained;
      frontier.push_back(v);
      changed |= gained;
    }
    touched_list.clear();
    for (std::size_t k = 0; k < lane_count; ++k) {
      if (((changed >> k) & 1) != 0) last_round[k] = round;
    }
    if (changed == 0) break;
  }

  // One row-major pass over the plane hashes every lane.
  std::vector<std::uint64_t> digest(lane_count, fnv1a64(nullptr, 0));
  std::vector<NodeId> reached(lane_count, 0);
  for (std::size_t s = 0; s < slots; ++s) {
    const double* row = &dist[s * lane_count];
    for (std::size_t k = 0; k < lane_count; ++k) {
      digest[k] = fnv1a64_append(digest[k], &row[k], sizeof(double));
      if (std::isfinite(row[k])) ++reached[k];
    }
  }
  for (std::size_t k = 0; k < lane_count; ++k) {
    LaneOutcome& lane = out.lanes[k];
    lane.digest = digest[k];
    lane.reached = reached[k];
    lane.rounds = last_round[k];
    lane.values.reserve(lanes[k].echo_nodes.size());
    for (const NodeId n : lanes[k].echo_nodes) {
      lane.values.push_back(dist[row_of(n) + k]);
    }
  }
  return out;
}

}  // namespace graffix::serve
