#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

namespace graffix::sim {

namespace {
// Process-wide testing knob (see the header): driver-level differential
// tests cannot reach the engines run_sssp / run_bc construct privately,
// and 1-core CI boxes never shard on their own — this forces the sharded
// path across every engine at once.
std::atomic<std::size_t> g_sweep_chunks{0};
}  // namespace

void set_global_sweep_chunks_for_test(std::size_t n) {
  g_sweep_chunks.store(n, std::memory_order_relaxed);
}

std::size_t global_sweep_chunks_for_test() {
  return g_sweep_chunks.load(std::memory_order_relaxed);
}

std::size_t Engine::sweep_chunk_count(std::size_t n_blocks) const {
  if (chunks_override_ > 0) return std::min(chunks_override_, n_blocks);
  if (const std::size_t g = global_sweep_chunks_for_test(); g > 0) {
    return std::min(g, n_blocks);
  }
  if (n_blocks < kMinBlocksToShard) return 1;
  // Oversubscribed pools (more threads pinned than processors) cannot
  // speed up the accounting phase — shard by what the machine can
  // actually run. One-worker machines, and sweeps nested in a pool task,
  // stay on the fused serial path.
  const auto workers = static_cast<std::size_t>(effective_workers());
  if (workers <= 1) return 1;
  return std::max<std::size_t>(
      1, std::min(workers * kChunksPerWorker, n_blocks / kMinBlocksPerChunk));
}

void Engine::account_block(std::span<const WorkItem> items,
                           const SweepOptions& opts, std::size_t b,
                           const BlockMeta& meta, SweepScratch& sc,
                           KernelStats& st) const {
  const std::uint32_t ws = config_.warp_size;
  const auto targets = graph_->targets();
  const bool csr_mode = opts.edge_mode == EdgeLoadMode::Csr;
  const bool ideal_mode = opts.edge_mode == EdgeLoadMode::IdealWarpPacked;
  const bool shared_attr = opts.attr_space == AttrSpace::Shared;
  const std::uint64_t edge_bytes = config_.edge_bytes;
  const std::uint64_t attr_bytes = config_.attr_bytes;
  const std::uint64_t seg_bytes = config_.transaction_bytes;
  const std::uint32_t banks = config_.shared_banks;
  const WorkItem* block = items.data() + b * ws;
  const NodeId max_len = meta.max_len;
  for (std::uint64_t m = meta.bits; m != 0; m &= m - 1) {
    sc.lane_edge_seg[std::countr_zero(m)] = ~std::uint64_t{0};
  }
  // Every step issues one warp instruction and occupies ws lane slots;
  // the walk below visits only the lanes live at each step.
  st.warp_steps += max_len;
  st.lane_slots += static_cast<std::uint64_t>(max_len) * ws;
  std::uint64_t live = meta.bits;
  for (NodeId j = 0; j < max_len; ++j) {
    sc.epoch += 1;  // invalidates the bank + segment scratch in O(1)
    const auto active = static_cast<std::uint32_t>(std::popcount(live));
    std::uint32_t edge_segs = 0;
    std::uint32_t attr_segs = 0;
    std::uint32_t shared_hits = 0;
    for (std::uint64_t m = live; m != 0; m &= m - 1) {
      const auto l = static_cast<std::uint32_t>(std::countr_zero(m));
      const WorkItem& item = block[l];
      if (j + 1 == item.edge_count) live &= ~(std::uint64_t{1} << l);
      const EdgeId e = item.edge_begin + j;
      const NodeId v = targets[e];
      if (csr_mode) {
        // A lane streams its adjacency sequentially: consecutive
        // positions share a 32B sector and hit in cache, so a lane
        // only pays when it crosses into a new sector.
        const std::uint64_t seg = (e * edge_bytes) / seg_bytes;
        if (seg != sc.lane_edge_seg[l]) {
          sc.lane_edge_seg[l] = seg;
          ++edge_segs;
        }
      }
      if (shared_attr) {
        ++shared_hits;
        // Bank-conflict bookkeeping: lanes hitting different words in
        // the same bank serialize; same-word hits broadcast for free.
        const std::uint32_t bank = v % banks;
        if (sc.bank_epoch[bank] == sc.epoch && sc.bank_word[bank] != v) {
          st.bank_conflicts += 1;
        }
        sc.bank_word[bank] = v;
        sc.bank_epoch[bank] = sc.epoch;
      } else {
        attr_segs += sc.insert_attr_seg((v * attr_bytes) / seg_bytes);
      }
    }
    if (ideal_mode && active > 0) edge_segs = 1;
    if (opts.weighted) edge_segs *= 2;  // parallel weights stream
    if (opts.edges_resident) {
      st.shared_accesses += active;
      edge_segs = 0;
    }
    st.active_lanes += active;
    st.edge_transactions += edge_segs;
    st.attr_transactions += attr_segs;
    st.shared_accesses += shared_hits;
    // Lower bound: `active` gathers of attr_bytes each, fully packed.
    const std::uint64_t global_attr = active - shared_hits;
    st.attr_ideal_transactions +=
        (global_attr * attr_bytes + seg_bytes - 1) / seg_bytes;
  }
}

void Engine::bind_memo(BlockMemo& memo, std::span<const WorkItem> items,
                       std::size_t n_blocks) const {
  if (memo.engine_ == nullptr) {
    memo.engine_ = this;
    memo.items_ = items.data();
    memo.n_items_ = items.size();
    memo.entries_.assign(n_blocks, BlockMemo::Entry{});
  }
  GRAFFIX_CHECK(memo.engine_ == this && memo.items_ == items.data() &&
                    memo.n_items_ == items.size(),
                "BlockMemo reused for another engine or work list");
}

void Engine::account_or_recall(std::span<const WorkItem> items,
                               const SweepOptions& opts, std::size_t b,
                               const BlockMeta& meta, SweepScratch& sc,
                               BlockMemo* memo, KernelStats& st) const {
  if (memo == nullptr) {
    account_block(items, opts, b, meta, sc, st);
    return;
  }
  const BlockMemo::Key key{meta.bits,
                           opts.edge_mode,
                           opts.attr_space,
                           opts.edges_resident,
                           opts.weighted,
                           /*valid=*/true};
  BlockMemo::Entry& e = memo->entries_[b];
  if (!(e.key == key)) {
    KernelStats fresh;
    account_block(items, opts, b, meta, sc, fresh);
    e = {key,
         fresh.warp_steps,
         fresh.lane_slots,
         fresh.active_lanes,
         fresh.edge_transactions,
         fresh.attr_transactions,
         fresh.attr_ideal_transactions,
         fresh.shared_accesses,
         fresh.bank_conflicts};
  }
  st.warp_steps += e.warp_steps;
  st.lane_slots += e.lane_slots;
  st.active_lanes += e.active_lanes;
  st.edge_transactions += e.edge_transactions;
  st.attr_transactions += e.attr_transactions;
  st.attr_ideal_transactions += e.attr_ideal_transactions;
  st.shared_accesses += e.shared_accesses;
  st.bank_conflicts += e.bank_conflicts;
}

void Engine::charge_uniform_kernel(std::uint64_t n_items, double tx_per_item,
                                   KernelStats& stats) const {
  if (n_items == 0) return;
  stats.sweeps += 1;
  const std::uint32_t ws = config_.warp_size;
  const std::uint64_t steps = (n_items + ws - 1) / ws;
  stats.warp_steps += steps;
  stats.lane_slots += steps * ws;
  stats.active_lanes += n_items;
  stats.aux_ops += n_items;
  // Uniform streaming access: perfectly coalesced. Ceil, not round: a
  // partial trailing segment still occupies a full bus transaction, and
  // a kernel that touches any bytes owes at least one.
  const double bytes =
      static_cast<double>(n_items) * tx_per_item * config_.attr_bytes;
  const auto tx = static_cast<std::uint64_t>(
      std::ceil(bytes / config_.transaction_bytes));
  stats.attr_transactions += tx;
  stats.attr_ideal_transactions += tx;
}

std::vector<WorkItem> items_all_vertices(const Csr& graph) {
  std::vector<WorkItem> items;
  items.reserve(graph.num_nodes());
  const NodeId slots = graph.num_slots();
  for (NodeId s = 0; s < slots; ++s) {
    if (graph.is_hole(s)) continue;
    items.push_back({s, graph.edge_begin(s), graph.degree(s)});
  }
  return items;
}

}  // namespace graffix::sim
