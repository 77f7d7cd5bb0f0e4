// Lockstep SIMT engine.
//
// Executes vertex-centric push sweeps over a Csr the way a GPU warp
// would: items are packed into warps of warp_size lanes; the warp steps
// through neighbor position j = 0..max_item_len-1 in lockstep; at each
// step the engine records which lanes are active (divergence), groups the
// lanes' edge-array and node-attribute byte addresses into
// transaction_bytes segments (coalescing), and invokes the caller's edge
// functor, which performs the *functional* update and reports whether it
// committed (atomic traffic).
//
// A sweep runs in two phases (DESIGN.md §7):
//
//   Phase A (accounting) — gate evaluation plus all memory accounting
//   (divergence, edge/attr transactions, shared hits, bank conflicts).
//   Lane destinations are topology-only, so warp blocks are independent
//   here and the phase shards contiguous block ranges across threads;
//   each chunk accumulates into its own KernelStats, reduced in chunk
//   (= warp block) order. All counters are integer sums, so the totals
//   are bit-identical at any thread count. Phase A also records each
//   block's metadata (live-lane mask, longest gated-in item) and a
//   compacted per-chunk list of live block ids.
//
//   Phase B (functional) — replays the live blocks serially in warp/lane
//   order and invokes the caller's functor. Functors may read state
//   written by earlier commits of the same sweep (Bellman-Ford-style
//   propagation) and may keep sweep aggregates (sums, flags, appended
//   frontiers) in plain caller state: every call happens in serial
//   order, so atomic_commits/atomic_conflicts and all functional state
//   match the fully serial engine exactly.
//
// When the chunking policy yields a single chunk (small sweeps, nested
// parallelism, a one-worker machine), the sweep takes a *fused* path
// instead: a cheap O(items) gate prepass records the same per-block
// metadata, then one walk over the live blocks runs accounting and the
// functional replay back-to-back per block while the block's items and
// edges are cache-hot. The prepass keeps gate-evaluation timing
// identical to the two-phase path (every gate fires before any fn()),
// so the fused path produces byte-identical KernelStats and functional
// state for ANY pure gate — even one that is not sweep-stable — which
// is what lets one-thread and sharded runs agree bit-for-bit.
//
// Contract for gates: a gate must be *sweep-stable* — its value for any
// source may not depend on commits made by this sweep's functor, because
// Phase A evaluates every gate before Phase B runs any fn(). All in-repo
// gates qualify (SSSP gates on a snapshot, BC's level==depth can never be
// produced by a same-sweep write of depth+1, SCC flags are not written
// mid-propagation); the determinism tests pin this. Gates and functors
// must tolerate concurrent *gate* invocation from worker threads.
//
// Host cost follows simulated work, not simulated waste. Both per-step
// lane loops (accounting and the functional replay) walk the block's
// live-lane mask in ascending lane order: they start from the gated-in
// lanes that have at least one edge and clear a lane's bit after its
// last step, so gated-out, empty and finished lanes are never visited.
// A block costs O(warp steps + active lanes) host work; the idle lane
// slots are still charged to warp_steps/lane_slots arithmetically, and
// the walk's order keeps functor calls and every KernelStats counter
// identical to a visit of every slot.
//
// Accounting is a pure function of a block's items, its step-0 live mask
// and the SweepOptions fields it reads (the graph and config are fixed
// per engine). Topology-driven drivers sweep the same invariant work list
// every iteration, so they pass a BlockMemo owned beside that list: a
// block whose mask and options equal the ones it showed last time adds
// its cached counters instead of recounting them. The gate prepass, the
// functional replay and the atomic counters are never memoized, and
// frontier lists (rebuilt every sweep) take no memo. KernelStats are
// byte-identical with or without one.
//
// Identical inputs give identical stats and results at every thread
// count, including 1. A single Engine instance is not thread-safe; use
// one engine per thread of control (forked drivers each own one). A
// sweep that re-enters the same engine (e.g. a functor driving another
// sweep) dies loudly on the in-sweep guard instead of silently
// corrupting the shared per-sweep scratch.
//
// This is the substitution substrate for the paper's K40c — see DESIGN.md.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"
#include "sim/work.hpp"
#include "util/arena.hpp"
#include "util/macros.hpp"
#include "util/parallel.hpp"

namespace graffix::sim {

/// Testing only, the process-wide analogue of Engine's per-instance chunk
/// knob for drivers that own their engines privately (run_sssp /
/// run_bc): forces every engine's chunk policy to min(n, blocks) when
/// n > 0. Atomic — forked BC drivers consult it from pool workers.
/// Prefer the ScopedGlobalSweepChunks RAII guard below.
void set_global_sweep_chunks_for_test(std::size_t n);
[[nodiscard]] std::size_t global_sweep_chunks_for_test();

/// Per-sweep options.
struct SweepOptions {
  EdgeLoadMode edge_mode = EdgeLoadMode::Csr;
  AttrSpace attr_space = AttrSpace::Global;
  /// Edge/weight arrays already staged into shared memory (cluster inner
  /// iterations after the first): edge traffic becomes shared accesses.
  bool edges_resident = false;
  /// Count a weights-array stream alongside the edges array.
  bool weighted = false;
  /// Whether this sweep is its own kernel launch. Cluster inner
  /// iterations run inside one launch and set this to false.
  bool charge_launch = true;
};

/// Per-chunk accounting scratch. Bank words and the distinct-segment set
/// are epoch-stamped: bumping `epoch` invalidates every entry in O(1)
/// instead of refilling shared_banks words each warp step. The segment
/// set is a small open-addressed hash table (capacity >= 4*warp_size, a
/// power of two, so it can never fill from <= warp_size inserts per
/// step), replacing the previous O(warp_size) linear scan per insert.
/// The functional replay's lane table (lane_dst) lives here too, so one
/// object carries every per-lane table; Phase B is serial and uses chunk
/// 0's scratch.
struct SweepScratch {
  // Arena-pooled (ArenaVector): each sweep chunk tears these down with
  // its Engine; pooling hands the blocks to the next Engine instead of
  // round-tripping through the kernel allocator (DESIGN.md §9).
  ArenaVector<std::uint64_t> lane_edge_seg;
  ArenaVector<NodeId> lane_dst;  // per-lane destination this warp step
  ArenaVector<NodeId> bank_word;
  ArenaVector<std::uint64_t> bank_epoch;
  ArenaVector<std::uint64_t> seg_key;
  ArenaVector<std::uint64_t> seg_epoch;
  std::uint64_t epoch = 0;
  std::uint32_t seg_mask = 0;

  void ensure(std::uint32_t warp_size, std::uint32_t banks) {
    if (lane_edge_seg.size() != warp_size) {
      lane_edge_seg.assign(warp_size, ~std::uint64_t{0});
      lane_dst.assign(warp_size, kInvalidNode);
    }
    bool rewound = false;
    if (bank_word.size() != banks) {
      bank_word.assign(banks, kInvalidNode);
      bank_epoch.assign(banks, 0);
      rewound = true;
    }
    std::uint32_t cap = 4;
    while (cap < 4 * warp_size) cap *= 2;
    if (seg_key.size() != cap) {
      seg_key.assign(cap, 0);
      seg_epoch.assign(cap, 0);
      seg_mask = cap - 1;
      rewound = true;
    }
    if (rewound) {
      // Rewinding the epoch invalidates the stamps of BOTH tables, not
      // just the one that was resized: a stale stamp left at e.g. 1
      // would read as valid the moment the rewound epoch reaches 1
      // again (false "already present" segments undercount attr
      // transactions; false bank hits overcount conflicts).
      epoch = 0;
      std::fill(bank_epoch.begin(), bank_epoch.end(), 0);
      std::fill(seg_epoch.begin(), seg_epoch.end(), 0);
    }
  }

  /// Returns 1 if `seg` is new this epoch, 0 if already present. Stamps
  /// start at 0 and `epoch` is pre-incremented per step, so zero-filled
  /// tables are never falsely valid.
  std::uint32_t insert_attr_seg(std::uint64_t seg) {
    std::uint64_t h = seg * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
    std::uint32_t slot = static_cast<std::uint32_t>(h) & seg_mask;
    while (true) {
      if (seg_epoch[slot] != epoch) {
        seg_epoch[slot] = epoch;
        seg_key[slot] = seg;
        return 1;
      }
      if (seg_key[slot] == seg) return 0;
      slot = (slot + 1) & seg_mask;
    }
  }
};

class Engine;

/// Per-warp-block accounting memo for one invariant work list on one
/// engine (DESIGN.md §7). Each entry holds the exact key a block was
/// last accounted under (step-0 live mask plus every SweepOptions field
/// account_block reads) and the 8 counters it added; a sweep whose block
/// shows the same key adds those counters instead of recounting. The
/// memo binds to its first (engine, list) pair and refuses any other:
/// the list must stay unchanged while the memo lives. Sharded accounting
/// chunks own disjoint block ranges, so each entry has exactly one writer
/// per sweep.
class BlockMemo {
 private:
  friend class Engine;

  struct Key {
    std::uint64_t bits = 0;  // BlockMeta::bits
    EdgeLoadMode edge_mode = EdgeLoadMode::Csr;
    AttrSpace attr_space = AttrSpace::Global;
    bool edges_resident = false;
    bool weighted = false;
    bool valid = false;  // false until the block is first accounted
    bool operator==(const Key&) const = default;
  };
  struct Entry {
    Key key;
    std::uint64_t warp_steps;
    std::uint64_t lane_slots;
    std::uint64_t active_lanes;
    std::uint64_t edge_transactions;
    std::uint64_t attr_transactions;
    std::uint64_t attr_ideal_transactions;
    std::uint64_t shared_accesses;
    std::uint64_t bank_conflicts;
  };

  const Engine* engine_ = nullptr;
  const WorkItem* items_ = nullptr;
  std::size_t n_items_ = 0;
  // Arena-pooled like SweepScratch: a driver's memos die with it.
  ArenaVector<Entry> entries_;
};

class Engine {
 public:
  Engine(const Csr& graph, SimConfig config)
      : graph_(&graph), config_(config) {
    GRAFFIX_CHECK(config_.warp_size > 0 && config_.warp_size <= 64,
                  "warp size %u", config_.warp_size);
  }

  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] const Csr& graph() const { return *graph_; }

  /// Runs one lockstep sweep over `items`. For every edge (u -> v, w)
  /// covered by an item, calls fn(u, v, w) -> bool; true means the lane
  /// committed an atomic update to v's attribute.
  ///
  /// Functional state lives entirely in the caller; the engine only
  /// observes addresses and commit flags. `memo`, when given, is the
  /// accounting memo of `items` (an invariant list; see BlockMemo).
  template <typename EdgeFn>
  void sweep(std::span<const WorkItem> items, const SweepOptions& opts,
             EdgeFn&& fn, KernelStats& stats, BlockMemo* memo = nullptr) {
    sweep_gated(items, opts, [](NodeId) { return true; },
                std::forward<EdgeFn>(fn), stats, memo);
  }

  /// sweep() with per-source gating: lanes whose gate(src) is false idle
  /// for the whole item (they still occupy lane slots — that idling IS
  /// thread divergence — but issue no memory traffic), exactly like a
  /// kernel thread that loads its vertex's state, finds nothing to do,
  /// and falls through. The gate's own coalesced state load is charged
  /// by the caller as a uniform kernel. Gates must be sweep-stable; see
  /// the file comment.
  template <typename Gate, typename EdgeFn>
  void sweep_gated(std::span<const WorkItem> items, const SweepOptions& opts,
                   Gate&& gate, EdgeFn&& fn, KernelStats& stats,
                   BlockMemo* memo = nullptr) {
    if (opts.charge_launch) stats.sweeps += 1;
    if (items.empty()) return;
    // The engine's per-sweep scratch (block_meta_, chunk lists, lane
    // tables) is shared mutable state: a nested sweep on the same
    // engine — a functor or gate driving another sweep, or two drivers
    // sharing one engine across threads — would corrupt it silently.
    // Die loudly instead (GRAFFIX_CHECK is always on; the flag costs
    // one byte and two writes per sweep).
    GRAFFIX_CHECK(!in_sweep_,
                  "Engine::sweep_gated re-entered mid-sweep: an Engine is "
                  "not reentrant — use one engine per thread of control");
    in_sweep_ = true;
    struct SweepGuard {
      bool* flag;
      ~SweepGuard() { *flag = false; }
    } sweep_guard{&in_sweep_};
    const std::uint32_t ws = config_.warp_size;
    const std::size_t n_blocks = (items.size() + ws - 1) / ws;
    const std::size_t n_chunks = sweep_chunk_count(n_blocks);
    block_meta_.resize(n_blocks);
    if (memo != nullptr) bind_memo(*memo, items, n_blocks);

    // Evaluates the gate for every lane of block b, records {bits,
    // max_len}, and reports whether the block has any work.
    // bits is the block's step-0 live mask: the gated-in lanes with at
    // least one edge. The warp runs until its longest gated-in item is
    // exhausted (thread divergence: shorter and gated-out lanes idle).
    auto eval_gate = [&](std::size_t b) {
      const std::size_t base = b * ws;
      const auto lanes = static_cast<std::uint32_t>(
          std::min<std::size_t>(ws, items.size() - base));
      std::uint64_t bits = 0;
      NodeId max_len = 0;
      for (std::uint32_t l = 0; l < lanes; ++l) {
        const WorkItem& item = items[base + l];
        if (!gate(item.src) || item.edge_count == 0) continue;
        bits |= std::uint64_t{1} << l;
        max_len = std::max(max_len, item.edge_count);
      }
      block_meta_[b] = {bits, max_len};
      return bits != 0;
    };

    // graffix-lint: allow(R6) vector-of-vectors (inner lists keep their capacity across sweeps); the arena only serves flat trivially-copyable scratch
    if (chunk_live_.size() < n_chunks) chunk_live_.resize(n_chunks);

    // ---- Fused serial path ----------------------------------------------
    // One chunk means no parallelism to exploit, so skip the phase
    // barrier: after the O(items) gate prepass, each live block runs its
    // accounting and functional replay back-to-back while its items and
    // edges are cache-hot — the pre-sharding single-traversal cost. The
    // prepass is what keeps gate timing identical to the two-phase path
    // (every gate fires before any fn()); see the file comment.
    if (n_chunks == 1 && chunks_override_ == 0 &&
        global_sweep_chunks_for_test() == 0) {
      auto& live = chunk_live_[0];
      live.clear();
      for (std::size_t b = 0; b < n_blocks; ++b) {
        if (eval_gate(b)) live.push_back(b);
      }
      // graffix-lint: allow(R6) SweepScratch owns nested buffers (non-trivial); grows once to the worker/chunk count, then steady-state
      if (scratch_.empty()) scratch_.resize(1);
      SweepScratch& sc = scratch_[0];
      sc.ensure(ws, config_.shared_banks);
      for (const std::size_t b : live) {
        account_or_recall(items, opts, b, block_meta_[b], sc, memo, stats);
        functional_block(items, b, block_meta_[b], sc, fn, stats);
      }
      return;
    }

    // ---- Phase A: gate evaluation + memory accounting -------------------
    // graffix-lint: allow(R6) SweepScratch owns nested buffers (non-trivial); grows once to the worker/chunk count, then steady-state
    if (scratch_.size() < n_chunks) scratch_.resize(n_chunks);
    chunk_stats_.assign(n_chunks, KernelStats{});
    const std::size_t blocks_per = n_blocks / n_chunks;
    const std::size_t blocks_rem = n_blocks % n_chunks;
    auto chunk_begin = [&](std::size_t c) {
      return c * blocks_per + std::min(c, blocks_rem);
    };
    auto account = [&](std::size_t c) {
      SweepScratch& sc = scratch_[c];
      sc.ensure(ws, config_.shared_banks);
      KernelStats& st = chunk_stats_[c];
      auto& live = chunk_live_[c];
      live.clear();
      const std::size_t block_end = chunk_begin(c + 1);
      for (std::size_t b = chunk_begin(c); b < block_end; ++b) {
        if (!eval_gate(b)) continue;
        live.push_back(b);
        account_or_recall(items, opts, b, block_meta_[b], sc, memo, st);
      }
    };
    if (n_chunks == 1) {
      account(0);
    } else {
      // Chunks are already coarse (>= kMinBlocksPerChunk blocks each),
      // so one pool task per chunk just load-balances them.
      parallel_tasks(n_chunks, account);
    }
    // Chunks cover ascending block ranges; reducing in chunk order keeps
    // the accumulation order identical to the serial engine (the counters
    // are integer sums, so this is belt-and-braces).
    for (std::size_t c = 0; c < n_chunks; ++c) stats += chunk_stats_[c];

    // ---- Phase B: functional phase + atomic accounting ------------------
    // Serial in warp/lane order over only the live blocks Phase A
    // compacted (per-chunk lists concatenate to ascending block order);
    // the recorded metadata means nothing is re-derived, so the replay
    // cost is proportional to active work.
    SweepScratch& sc = scratch_[0];  // ensured by Phase A chunk 0
    for (std::size_t c = 0; c < n_chunks; ++c) {
      for (const std::size_t b : chunk_live_[c]) {
        functional_block(items, b, block_meta_[b], sc, fn, stats);
      }
    }
  }

  /// Charges a uniform auxiliary kernel (confluence merges, frontier
  /// filters): n items, each touching `tx_per_item` global words.
  void charge_uniform_kernel(std::uint64_t n_items, double tx_per_item,
                             KernelStats& stats) const;

  /// Testing only: forces the two-phase path with min(n, blocks) chunks
  /// regardless of thread count or machine shape, so fused-vs-sharded
  /// equivalence can be pinned on any box. 0 restores the automatic
  /// policy (shard by actual hardware concurrency). Prefer the
  /// ScopedSweepChunks RAII guard below — a raw set leaks the override
  /// when an ASSERT fails before the restore line.
  void set_sweep_chunks_for_test(std::size_t n) { chunks_override_ = n; }

 private:
  /// Per-block metadata recorded during gate evaluation and reused by
  /// accounting and the functional replay.
  struct BlockMeta {
    std::uint64_t bits;  // step-0 live mask: lane l gated in with edges
    NodeId max_len;      // longest gated-in item (warp step count)
  };

  /// Below this many warp blocks the fork/join cost outweighs the
  /// accounting work and the sweep stays on one chunk (which also takes
  /// the fused path).
  static constexpr std::size_t kMinBlocksToShard = 64;
  /// A chunk must carry at least this many blocks: finer sharding spends
  /// more on scheduling than the per-block accounting it distributes.
  static constexpr std::size_t kMinBlocksPerChunk = 16;
  /// Chunks per worker when blocks allow it — enough slack for dynamic
  /// load balancing over skewed degree distributions without shredding
  /// the iteration space.
  static constexpr std::size_t kChunksPerWorker = 4;

  /// Chunking policy for one sweep: sized by the actual block count and
  /// by the hardware concurrency actually available (oversubscribed
  /// pools never help; see util/parallel.hpp effective_workers).
  [[nodiscard]] std::size_t sweep_chunk_count(std::size_t n_blocks) const;

  /// Memory accounting for one warp block (gate bits already recorded in
  /// `meta`). Topology-only: never calls the gate or the functor.
  void account_block(std::span<const WorkItem> items, const SweepOptions& opts,
                     std::size_t b, const BlockMeta& meta, SweepScratch& sc,
                     KernelStats& st) const;

  /// The one point where a sweep accounts a block, on the fused path and
  /// in sharded Phase A alike. Without a memo it is account_block. With
  /// one, a block whose key matches its entry adds the cached counters; a
  /// miss runs account_block into a zeroed KernelStats, stores the 8
  /// counters it produced, then adds them.
  void account_or_recall(std::span<const WorkItem> items,
                         const SweepOptions& opts, std::size_t b,
                         const BlockMeta& meta, SweepScratch& sc,
                         BlockMemo* memo, KernelStats& st) const;

  /// Binds a fresh memo to (this engine, items) and sizes it to n_blocks
  /// entries; a bound memo must be handed the same pair again.
  void bind_memo(BlockMemo& memo, std::span<const WorkItem> items,
                 std::size_t n_blocks) const;

  /// Whether a lane earlier than l in one step's live mask `step` wrote
  /// destination v at that step. `step` is the mask the step began with,
  /// so a lane on its last edge still conflicts and a finished lane's
  /// stale destination never does.
  static bool conflicts_earlier_lane(std::uint64_t step, std::uint32_t l,
                                     const NodeId* lane_dst, NodeId v) {
    for (std::uint64_t p = step & ((std::uint64_t{1} << l) - 1); p != 0;
         p &= p - 1) {
      if (lane_dst[std::countr_zero(p)] == v) return true;
    }
    return false;
  }

  /// Functional replay of one warp block in lane order: invokes fn and
  /// charges atomic commits/conflicts. Lanes of the same step committing
  /// to the same destination serialize. The lane table lives in the
  /// caller-provided scratch.
  template <typename EdgeFn>
  void functional_block(std::span<const WorkItem> items, std::size_t b,
                        const BlockMeta& meta, SweepScratch& sc, EdgeFn&& fn,
                        KernelStats& stats) {
    const auto targets = graph_->targets();
    const auto weights = graph_->weights();
    const bool has_weights = !weights.empty();
    const WorkItem* block = items.data() + b * config_.warp_size;
    // Live-lane walk (file comment): `step` holds the lanes active at
    // step j; a lane leaves `live` after its last edge.
    std::uint64_t live = meta.bits;
    for (NodeId j = 0; j < meta.max_len; ++j) {
      const std::uint64_t step = live;
      std::uint32_t commits = 0;
      for (std::uint64_t m = step; m != 0; m &= m - 1) {
        const auto l = static_cast<std::uint32_t>(std::countr_zero(m));
        const WorkItem& item = block[l];
        if (j + 1 == item.edge_count) live &= ~(std::uint64_t{1} << l);
        const EdgeId e = item.edge_begin + j;
        const NodeId v = targets[e];
        sc.lane_dst[l] = v;
        const Weight w = has_weights ? weights[e] : Weight{1};
        if (fn(item.src, v, w)) {
          ++commits;
          if (conflicts_earlier_lane(step, l, sc.lane_dst.data(), v)) {
            stats.atomic_conflicts += 1;
          }
        }
      }
      stats.atomic_commits += commits;
    }
  }

  const Csr* graph_;
  SimConfig config_;
  ArenaVector<BlockMeta> block_meta_;  // per warp block, one sweep's worth
  std::vector<std::vector<std::size_t>> chunk_live_;  // live block ids
  ArenaVector<KernelStats> chunk_stats_;
  std::vector<SweepScratch> scratch_;
  std::size_t chunks_override_ = 0;  // testing only; 0 = automatic
  bool in_sweep_ = false;            // reentrancy guard
};

/// RAII form of Engine::set_sweep_chunks_for_test: restores the
/// automatic chunking policy on scope exit, so a throwing test body or a
/// failed ASSERT cannot leak a forced chunk count into later tests.
class ScopedSweepChunks {
 public:
  ScopedSweepChunks(Engine& engine, std::size_t n) : engine_(&engine) {
    engine_->set_sweep_chunks_for_test(n);
  }
  ~ScopedSweepChunks() { engine_->set_sweep_chunks_for_test(0); }
  ScopedSweepChunks(const ScopedSweepChunks&) = delete;
  ScopedSweepChunks& operator=(const ScopedSweepChunks&) = delete;

 private:
  Engine* engine_;
};

/// RAII form of set_global_sweep_chunks_for_test: forces the chunk
/// policy of EVERY engine in the process (driver-owned engines included)
/// and restores the automatic policy on scope exit. Not nestable; the
/// driver-level replay-equivalence tests are its only intended user.
class ScopedGlobalSweepChunks {
 public:
  explicit ScopedGlobalSweepChunks(std::size_t n) {
    set_global_sweep_chunks_for_test(n);
  }
  ~ScopedGlobalSweepChunks() { set_global_sweep_chunks_for_test(0); }
  ScopedGlobalSweepChunks(const ScopedGlobalSweepChunks&) = delete;
  ScopedGlobalSweepChunks& operator=(const ScopedGlobalSweepChunks&) = delete;
};

/// Builds items for all non-hole slots in slot order.
[[nodiscard]] std::vector<WorkItem> items_all_vertices(const Csr& graph);

}  // namespace graffix::sim
