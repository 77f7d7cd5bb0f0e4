#include "transform/replicate.hpp"

#include <algorithm>
#include <unordered_map>

#include "graph/rebuild.hpp"
#include "util/macros.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace graffix::transform {

namespace {

struct Candidate {
  NodeId node;      // primary slot to replicate
  NodeId chunk;     // chunk the node is well connected to
  NodeId edge_count;
};

}  // namespace

ReplicationResult replicate_into_holes(const Csr& renumbered,
                                       const RenumberResult& renumber,
                                       const CoalescingKnobs& knobs) {
  const std::uint32_t k = knobs.chunk_size;
  const NodeId slots = renumbered.num_slots();
  GRAFFIX_CHECK(slots % k == 0, "slot count %u not chunk aligned", slots);
  const NodeId num_chunks = slots / k;
  const bool weighted = renumbered.has_weights();

  ReplicationResult result;

  // connectedness can exceed 1.0 on multigraphs (parallel arcs into a
  // sparse chunk), so thresholds above 1.0 explicitly mean "replication
  // disabled" — the exactness ablation relies on this.
  if (knobs.connectedness_threshold > 1.0) {
    result.graph = renumbered;
    result.replicas.group_of_slot.assign(slots, kInvalidNode);
    for (NodeId s = 0; s < slots; ++s) {
      if (renumbered.is_hole(s)) ++result.holes_total;
    }
    return result;
  }

  // --- Chunk geometry -----------------------------------------------------
  // Levels never straddle chunks (level starts are multiples of k).
  std::vector<NodeId> chunk_level(num_chunks);
  std::vector<NodeId> chunk_nonholes(num_chunks, 0);
  std::vector<std::vector<NodeId>> chunk_holes(num_chunks);
  for (NodeId s = 0; s < slots; ++s) {
    const NodeId c = s / k;
    if (s % k == 0) chunk_level[c] = renumber.level_of_slot[s];
    if (renumbered.is_hole(s)) {
      chunk_holes[c].push_back(s);
      ++result.holes_total;
    } else {
      ++chunk_nonholes[c];
    }
  }
  const NodeId num_levels = renumber.num_levels();
  std::vector<std::uint8_t> level_has_holes(num_levels, 0);
  std::vector<NodeId> level_free_holes(num_levels, 0);
  for (NodeId c = 0; c < num_chunks; ++c) {
    if (!chunk_holes[c].empty()) {
      level_has_holes[chunk_level[c]] = 1;
      level_free_holes[chunk_level[c]] +=
          static_cast<NodeId>(chunk_holes[c].size());
    }
  }

  // --- Candidate enumeration (lines 22-29 of Algorithm 2) -----------------
  // Edges from each node n to each chunk C whose parent level has holes.
  std::vector<Candidate> candidates;
  {
    // Candidate enumeration is the transform's hot loop. Work is keyed
    // by fixed slot blocks, not thread ids (DESIGN.md §7): each block
    // collects its candidates in slot order into its own list and the
    // lists are concatenated in ascending block order, so even the
    // pre-sort candidate sequence is independent of the team size.
    constexpr NodeId kSlotsPerBlock = 4096;
    const NodeId num_blocks = (slots + kSlotsPerBlock - 1) / kSlotsPerBlock;
    std::vector<std::vector<Candidate>> block_lists(num_blocks);
    parallel_for_dynamic(NodeId{0}, num_blocks, [&](NodeId blk) {
      std::unordered_map<NodeId, NodeId> counts;  // chunk -> edge count
      const NodeId lo = blk * kSlotsPerBlock;
      const NodeId hi = std::min<NodeId>(lo + kSlotsPerBlock, slots);
      for (NodeId n = lo; n < hi; ++n) {
        if (renumbered.is_hole(n)) continue;
        counts.clear();
        for (NodeId v : renumbered.neighbors(n)) {
          const NodeId c = v / k;
          const NodeId lvl = chunk_level[c];
          if (lvl == 0 || !level_has_holes[lvl - 1]) continue;
          counts[c]++;
        }
        // graffix-lint: allow(R2) candidate order is fixed downstream by the total-order sort over (edge_count, node, chunk)
        for (const auto& [c, cnt] : counts) {
          if (chunk_nonholes[c] == 0) continue;
          const double connectedness =
              static_cast<double>(cnt) / static_cast<double>(chunk_nonholes[c]);
          if (connectedness >= knobs.connectedness_threshold && cnt >= 2) {
            block_lists[blk].push_back({n, c, cnt});
          }
        }
      }
    }, 1);
    for (auto& block_list : block_lists) {
      candidates.insert(candidates.end(), block_list.begin(),
                        block_list.end());
    }
  }
  // Higher edge-count first; deterministic tie-break.
  // graffix-lint: allow(R4) comparator is a total order: (edge_count desc, node asc, chunk asc) and (node, chunk) pairs are distinct
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.edge_count != b.edge_count) return a.edge_count > b.edge_count;
              if (a.node != b.node) return a.node < b.node;
              return a.chunk < b.chunk;
            });

  // --- Parent-chunk preference ---------------------------------------------
  // For a chunk C, prefer placing replicas in the level-(l-1) chunk holding
  // the most in-neighbors (BFS parents) of C's members. The full
  // (score desc, chunk asc) preference list per distinct candidate chunk
  // is a pure function of the immutable reverse graph, so it is computed
  // up front in parallel; the greedy loop walks it to the first chunk
  // that still has a free hole — exactly the argmax the old per-candidate
  // scan produced, evaluated against the live hole pools.
  const Csr reverse = renumbered.transpose();
  std::unordered_map<NodeId, std::uint32_t> hint_index;  // chunk -> list
  std::vector<std::vector<NodeId>> hint_lists;
  {
    std::vector<NodeId> distinct;
    for (const Candidate& cand : candidates) {
      if (hint_index.emplace(cand.chunk, distinct.size()).second) {
        distinct.push_back(cand.chunk);
      }
    }
    hint_lists.resize(distinct.size());
    parallel_for_dynamic(std::size_t{0}, distinct.size(), [&](std::size_t i) {
      const NodeId c = distinct[i];
      const NodeId lvl = chunk_level[c];
      if (lvl == 0) return;
      std::unordered_map<NodeId, NodeId> score;
      const NodeId lo = c * k, hi = lo + k;
      for (NodeId s = lo; s < hi; ++s) {
        if (renumbered.is_hole(s)) continue;
        for (NodeId p : reverse.neighbors(s)) {
          const NodeId pc = p / k;
          if (chunk_level[pc] == lvl - 1) score[pc]++;
        }
      }
      std::vector<std::pair<NodeId, NodeId>> ranked;  // (chunk, score)
      // graffix-lint: allow(R6) per-chunk ranking scratch, bounded by the distinct parent-chunk count; lives only for this task
      ranked.reserve(score.size());
      // graffix-lint: allow(R2) insertion order is fixed by the total-order sort on (score desc, chunk asc) just below
      for (const auto& [pc, sc] : score) ranked.emplace_back(pc, sc);  // graffix-lint: allow(R6) append stays within the reserve above
      // graffix-lint: allow(R4) comparator is a total order: chunk ids are unique map keys, so the (score desc, chunk asc) tie-break never ties
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
      hint_lists[i].reserve(ranked.size());
      for (const auto& [pc, sc] : ranked) hint_lists[i].push_back(pc);
    });
  }

  // --- Per-level free-hole chunk lists ---------------------------------
  // Chunks of each level that started with holes, in ascending id order.
  // Hole pools only ever shrink, so a cursor that skips empty chunks at
  // the head finds the same chunk as the old O(num_chunks) ascending
  // fallback scan — without rescanning the prefix per candidate.
  std::vector<std::vector<NodeId>> level_free_chunks(num_levels);
  std::vector<std::size_t> level_cursor(num_levels, 0);
  for (NodeId c = 0; c < num_chunks; ++c) {
    if (!chunk_holes[c].empty()) level_free_chunks[chunk_level[c]].push_back(c);
  }
  auto first_free_chunk = [&](NodeId lvl) -> NodeId {
    auto& list = level_free_chunks[lvl];
    std::size_t& cur = level_cursor[lvl];
    while (cur < list.size() && chunk_holes[list[cur]].empty()) ++cur;
    return cur < list.size() ? list[cur] : kInvalidNode;
  };

  // --- Mutable adjacency ----------------------------------------------------
  using Arc = ExtraArc;
  std::vector<std::vector<Arc>> adj(slots);
  std::vector<std::uint8_t> holes(slots, 0);
  parallel_for_dynamic(NodeId{0}, slots, [&](NodeId s) {
    holes[s] = renumbered.is_hole(s) ? 1 : 0;
    const auto nbrs = renumbered.neighbors(s);
    adj[s].reserve(nbrs.size());
    const auto wts =
        weighted ? renumbered.edge_weights(s) : std::span<const Weight>{};
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      adj[s].push_back({nbrs[i], weighted ? wts[i] : Weight{1}});
    }
  });

  ReplicaMap& map = result.replicas;
  map.group_of_slot.assign(slots, kInvalidNode);

  // --- Replication (lines 29-35) -------------------------------------------
  // Candidates in order: each takes a free hole at its chunk's parent
  // level (if any is left), then the replica takes over the primary's
  // edges into the chunk and gains a few 2-hop edges inside it.
  auto replicate_one = [&](const Candidate& cand) {
    const NodeId lvl = chunk_level[cand.chunk];
    if (lvl == 0 || level_free_holes[lvl - 1] == 0) return;
    // Never replicate a replica, and respect the per-node copy cap.
    if (map.group_of_slot[cand.node] != kInvalidNode) {
      const auto& group = map.groups[map.group_of_slot[cand.node]];
      if (group[0] != cand.node) return;
      if (group.size() > knobs.max_replicas_per_node) return;
    }

    // Pick the hole: parent-chunk hint, else the lowest-id chunk with a
    // free hole at the parent level.
    NodeId target_chunk = kInvalidNode;
    if (auto it = hint_index.find(cand.chunk); it != hint_index.end()) {
      for (NodeId pc : hint_lists[it->second]) {
        if (!chunk_holes[pc].empty()) {
          target_chunk = pc;
          break;
        }
      }
    }
    if (target_chunk == kInvalidNode) target_chunk = first_free_chunk(lvl - 1);
    if (target_chunk == kInvalidNode) return;
    const NodeId replica = chunk_holes[target_chunk].back();
    chunk_holes[target_chunk].pop_back();
    --level_free_holes[lvl - 1];
    holes[replica] = 0;

    // Record the replica group.
    NodeId group = map.group_of_slot[cand.node];
    if (group == kInvalidNode) {
      group = static_cast<NodeId>(map.groups.size());
      map.groups.push_back({cand.node});
      map.group_of_slot[cand.node] = group;
    }
    map.groups[group].push_back(replica);
    map.group_of_slot[replica] = group;
    ++result.holes_filled;

    // Move n's edges into the chunk onto the replica.
    const NodeId chunk_lo = cand.chunk * k;
    const NodeId chunk_hi = chunk_lo + k;
    auto in_chunk = [&](NodeId v) { return v >= chunk_lo && v < chunk_hi; };
    std::vector<Arc> moved;
    auto& primary_adj = adj[cand.node];
    for (auto it = primary_adj.begin(); it != primary_adj.end();) {
      if (in_chunk(it->dst)) {
        moved.push_back(*it);
        it = primary_adj.erase(it);
      } else {
        ++it;
      }
    }

    // New 2-hop edges inside the chunk (the approximation knob).
    std::uint32_t added = 0;
    std::vector<Arc> extra;
    for (const Arc& hop1 : moved) {
      if (added >= knobs.max_new_edges_per_replica) break;
      for (const Arc& hop2 : adj[hop1.dst]) {
        if (added >= knobs.max_new_edges_per_replica) break;
        const NodeId q = hop2.dst;
        if (!in_chunk(q) || q == cand.node || q == replica) continue;
        const bool exists =
            std::any_of(moved.begin(), moved.end(),
                        [q](const Arc& a) { return a.dst == q; }) ||
            std::any_of(extra.begin(), extra.end(),
                        [q](const Arc& a) { return a.dst == q; });
        if (exists) continue;
        extra.push_back({q, hop1.w + hop2.w});
        ++added;
      }
    }

    result.edges_moved += moved.size();
    result.edges_added += extra.size();
    auto& replica_adj = adj[replica];
    replica_adj = std::move(moved);
    replica_adj.insert(replica_adj.end(), extra.begin(), extra.end());
  };

  {
    WallTimer greedy_timer;
    for (const Candidate& cand : candidates) replicate_one(cand);
    result.greedy_seconds = greedy_timer.seconds();
  }

  // --- Rebuild the Csr (shared parallel path) -------------------------------
  result.graph = rebuild_from_adjacency(adj, weighted, std::move(holes));
  return result;
}

}  // namespace graffix::transform
