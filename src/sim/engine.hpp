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
//   block's metadata (live-lane mask, record count, longest gated-in
//   item) and a compacted per-chunk list of live block ids.
//
//   Phase B (functional) — replays live blocks and invokes the caller's
//   functor. For an *uncertified* functor (SweepOptions::functor.merge ==
//   MergeKind::None, the default) the replay is serial in warp/lane
//   order: functors may read state written by earlier commits of the
//   same sweep (Bellman-Ford-style propagation), so
//   atomic_commits/atomic_conflicts and all functional state match the
//   fully serial engine exactly. For a functor *certified* as a
//   commutative-monoid merge (see FunctorTraits) the replay runs
//   block-parallel: candidate updates are grouped by merge target and
//   each target's candidates are absorbed in serial warp/lane order, so
//   functional state AND stats stay byte-identical to the serial oracle
//   — see "Commutative replay contract" in DESIGN.md §7.
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
// Host cost follows simulated work, not simulated waste. Every per-step
// lane loop (accounting, the functional replay, the grouped replay's
// record emission and commit replay) walks the block's live-lane mask in
// ascending lane order: it starts from the gated-in lanes that have at
// least one edge and clears a lane's bit after its last step, so gated-
// out, empty and finished lanes are never visited. A block costs
// O(warp steps + active lanes) host work; the idle lane slots are still
// charged to warp_steps/lane_slots arithmetically, and the walk's order
// keeps functor calls and every KernelStats counter identical to a
// visit of every slot.
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

/// How a functor folds one candidate edge update into its target's state.
enum class MergeKind : std::uint8_t {
  /// Order-sensitive (Gauss-Seidel chains, shared side effects, or
  /// simply unaudited): Phase B replays serially. The safe default.
  None,
  /// Tropical min-plus absorb: state' = min(state, candidate). SSSP
  /// relaxations and BFS level claims.
  Min,
  /// Plus-monoid accumulation: state' = state + candidate. PageRank rank
  /// scatter/gather, BC sigma propagation.
  Sum,
  /// Any other per-target fold absorbed in warp/lane order (BC
  /// dependency accumulation). The engine never interprets the merge —
  /// the kind only documents the algebra being attested.
  Absorb,
};

/// Which endpoint's state the functor merges into.
enum class MergeTarget : std::uint8_t {
  Dst,  ///< push functors: fn(u, v, w) writes state indexed by v
  Src,  ///< pull functors (transpose sweeps): fn writes state indexed by u
};

/// Caller's certification that an edge functor is a commutative-monoid
/// merge, which lets Phase B replay warp blocks in parallel.
///
/// Setting merge != None attests, for every fn(u, v, w) call of the
/// sweep, with t = (target == Dst ? v : u):
///
///   1. fn reads only sweep-stable state (not written by any functor
///      call of this sweep) plus state indexed by t;
///   2. fn writes only state indexed by t, and has no other side
///      effects — no shared accumulators, no appends to shared lists;
///   3. distinct targets' updates commute (they touch disjoint state),
///      so only the relative order of same-target calls can matter.
///
/// Under that contract the engine guarantees same-target calls are
/// absorbed in exactly the serial warp/lane replay order. Integer and
/// exact merges (Min/Max selection) are trivially order-safe; rounded FP
/// accumulation (Sum of floats) is ALSO bit-identical to the serial
/// engine because each target's additions happen in the serial order —
/// no FP reassociation can leak in. The engine cannot check any of
/// this; the replay-equivalence differential tests pin the in-repo
/// certified functors against the serial oracle instead.
struct FunctorTraits {
  MergeKind merge = MergeKind::None;
  MergeTarget target = MergeTarget::Dst;

  [[nodiscard]] bool certified() const { return merge != MergeKind::None; }
};

/// Deterministic side-channel reductions (DESIGN.md §7).
///
/// The FunctorTraits contract forbids side effects outside the merge
/// target's state, which locks out functors that also maintain *sweep
/// aggregates*: SSSP relax sums FP improvement magnitudes for stall
/// detection and appends changed vertices; BC forward appends the next
/// frontier. A SideChannel is the sanctioned escape hatch: the functor
/// routes those effects through add()/raise()/append(), and the channel
/// guarantees the observable results — rounded FP sums, flag values, and
/// append order — are byte-identical to the serial oracle at any thread
/// count or chunking.
///
/// Two modes:
///   - Direct (default): every op applies immediately in call order.
///     Serial replays (fused path, uncertified functors, cluster inner
///     rounds) use this — call order IS serial lex order there.
///   - Grouped capture: during the grouped replay the engine brackets
///     each absorb call with begin_call(r), so ops land in per-RECORD
///     scratch. Per-record, not per-chunk: merging per-chunk FP partials
///     would reassociate the sums and break bit-identity. After the
///     absorb, merge_grouped() folds the records in one serial walk in
///     ascending record index — which is exactly the serial (block,
///     step, lane) call order — so sums round identically, flags agree,
///     and appends concatenate in serial discovery order. The walk is
///     serial O(records) but touches ~5 bytes per record; the parallel
///     absorb it follows does far more work per record.
///
/// Functor-side contract: at most one append() per functor call (an
/// edge functor discovers at most its own target), and sum/flag indices
/// must be < the counts fixed at construction. Wire a channel into a
/// sweep via SweepOptions::side; the same channel may serve several
/// sequential sweeps (boundary + cluster parts of one launch) — each
/// merges before the next begins, preserving the serial interleaving.
class SideChannel {
 public:
  /// Per-channel FP accumulator capacity; flags share the tag byte with
  /// the sums, so both are capped at 4.
  static constexpr std::size_t kMaxSums = 4;
  static constexpr std::size_t kMaxFlags = 4;

  explicit SideChannel(std::size_t n_sums = 0) : n_sums_(n_sums) {
    GRAFFIX_CHECK(n_sums <= kMaxSums, "SideChannel: %zu sums > cap %zu",
                  n_sums, kMaxSums);
    reset();
  }

  /// Destination list for append(); may be rebound between sweeps (BC
  /// rebinds per wave). Null means append() must not be called.
  void bind_appends(std::vector<NodeId>* out) { out_ = out; }

  /// Zeroes sums and flags for the next iteration. Does NOT clear the
  /// bound append list — the caller owns its lifecycle.
  void reset() {
    for (double& s : sums_) s = 0.0;
    flags_ = 0;
  }

  /// Accumulates v into sum k, in serial call order either immediately
  /// (direct mode) or via the per-record merge (grouped capture).
  void add(std::size_t k, double v) {
    if (grouped_) {
      rec_sum_[tl_rec_ * n_sums_ + k] += v;
      rec_tag_[tl_rec_] |= static_cast<std::uint8_t>(1u << k);
    } else {
      sums_[k] += v;
    }
  }

  /// Raises boolean flag k (OR-fold; order-free by construction).
  void raise(std::size_t k) {
    if (grouped_) {
      rec_tag_[tl_rec_] |= static_cast<std::uint8_t>(0x10u << k);
    } else {
      flags_ |= static_cast<std::uint8_t>(1u << k);
    }
  }

  /// Appends v to the bound list, in serial discovery order.
  void append(NodeId v) {
    if (grouped_) {
      GRAFFIX_CHECK(rec_append_[tl_rec_] == kInvalidNode,
                    "SideChannel: a functor call may append at most once");
      rec_append_[tl_rec_] = v;
    } else {
      out_->push_back(v);
    }
  }

  [[nodiscard]] double sum(std::size_t k) const { return sums_[k]; }
  [[nodiscard]] bool flag(std::size_t k) const {
    return ((flags_ >> k) & 1) != 0;
  }

  // Engine-facing hooks (grouped replay only; see Engine::replay_grouped).
  void begin_grouped(std::size_t n_records);
  void begin_call(std::size_t r) { tl_rec_ = r; }
  void merge_grouped();

 private:
  std::size_t n_sums_;
  double sums_[kMaxSums] = {};
  std::uint8_t flags_ = 0;
  bool grouped_ = false;
  std::vector<NodeId>* out_ = nullptr;
  std::size_t n_records_ = 0;
  // Per-record capture scratch, arena-pooled like the engine's replay
  // tables. rec_tag_ bits 0-3 mark touched sums, bits 4-7 raised flags;
  // untouched records are skipped in the merge so spurious +0.0 folds
  // (and their -0.0 edge cases) can never perturb the totals.
  ArenaVector<double> rec_sum_;
  ArenaVector<std::uint8_t> rec_tag_;
  ArenaVector<NodeId> rec_append_;
  // The absorb's current record index. thread_local (absorb workers set
  // it independently) and shared across channels — safe because engines
  // are non-reentrant and every absorb call is bracketed by begin_call.
  static thread_local std::size_t tl_rec_;
};

/// Testing only, process-wide analogues of Engine's per-instance knobs
/// for drivers that own their engines privately (run_sssp / run_bc):
/// forces every engine's chunk policy to min(n, blocks) when n > 0, and
/// counts grouped replays across all engines. Atomics — forked BC
/// drivers consult them from pool workers. Prefer the
/// ScopedGlobalSweepChunks RAII guard below.
void set_global_sweep_chunks_for_test(std::size_t n);
[[nodiscard]] std::size_t global_sweep_chunks_for_test();
[[nodiscard]] std::uint64_t global_grouped_replays_for_test();

namespace detail {
/// Bumps the process-wide grouped-replay counter (engine-internal).
void note_grouped_replay();
}  // namespace detail

/// Per-sweep options.
struct SweepOptions {
  EdgeLoadMode edge_mode = EdgeLoadMode::Csr;
  AttrSpace attr_space = AttrSpace::Global;
  /// Edge/weight arrays already staged into shared memory (cluster inner
  /// iterations after the first): edge traffic becomes shared accesses.
  bool edges_resident = false;
  /// Cluster residency: resident[slot] == cluster id, kInvalidNode if not
  /// resident. When src and dst share a cluster the attribute access is
  /// served from shared memory (the latency technique's effect, §3).
  std::span<const NodeId> resident = {};
  /// Count a weights-array stream alongside the edges array.
  bool weighted = false;
  /// Whether this sweep is its own kernel launch. Cluster inner
  /// iterations run inside one launch and set this to false.
  bool charge_launch = true;
  /// Commutativity certification for this sweep's functor; defaults to
  /// uncertified (serial replay).
  FunctorTraits functor = {};
  /// Optional side-channel the functor routes its sweep aggregates
  /// through. Only the grouped replay interacts with it (per-record
  /// capture + in-order merge); serial paths leave it in direct mode,
  /// where ops apply in call order anyway.
  SideChannel* side = nullptr;
};

/// Per-chunk accounting scratch. Bank words and the distinct-segment set
/// are epoch-stamped: bumping `epoch` invalidates every entry in O(1)
/// instead of refilling shared_banks words each warp step. The segment
/// set is a small open-addressed hash table (capacity >= 4*warp_size, a
/// power of two, so it can never fill from <= warp_size inserts per
/// step), replacing the previous O(warp_size) linear scan per insert.
/// The replay lane table (lane_dst) lives here too — it is written
/// during Phase B and the atomic-accounting replay, so it must be
/// per-worker, never an engine member (two blocks replaying concurrently
/// would otherwise corrupt each other's conflict scans).
struct SweepScratch {
  // Arena-pooled (ArenaVector): each sweep chunk tears these down with
  // its Engine; pooling hands the blocks to the next Engine instead of
  // round-tripping through the kernel allocator (DESIGN.md §9).
  ArenaVector<std::uint64_t> lane_edge_seg;
  ArenaVector<NodeId> lane_res;  // per-lane source residency cluster
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
      lane_res.assign(warp_size, kInvalidNode);
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
  /// observes addresses and commit flags.
  template <typename EdgeFn>
  void sweep(std::span<const WorkItem> items, const SweepOptions& opts,
             EdgeFn&& fn, KernelStats& stats) {
    sweep_gated(items, opts, [](NodeId) { return true; },
                std::forward<EdgeFn>(fn), stats);
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
                   Gate&& gate, EdgeFn&& fn, KernelStats& stats) {
    if (opts.charge_launch) stats.sweeps += 1;
    if (items.empty()) return;
    // The engine's per-sweep scratch (block_meta_, chunk lists, replay
    // buffers) is shared mutable state: a nested sweep on the same
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

    // Evaluates the gate for every lane of block b, records {bits,
    // recs, max_len}, and reports whether the block has any work.
    // bits is the block's step-0 live mask: the gated-in lanes with at
    // least one edge. The warp runs until its longest gated-in item is
    // exhausted (thread divergence: shorter and gated-out lanes idle).
    auto eval_gate = [&](std::size_t b) {
      const std::size_t base = b * ws;
      const auto lanes = static_cast<std::uint32_t>(
          std::min<std::size_t>(ws, items.size() - base));
      std::uint64_t bits = 0;
      NodeId max_len = 0;
      std::uint64_t recs = 0;
      for (std::uint32_t l = 0; l < lanes; ++l) {
        const WorkItem& item = items[base + l];
        if (!gate(item.src) || item.edge_count == 0) continue;
        bits |= std::uint64_t{1} << l;
        max_len = std::max(max_len, item.edge_count);
        recs += item.edge_count;
      }
      block_meta_[b] = {bits, recs, max_len};
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
        account_block(items, opts, b, block_meta_[b], sc, stats);
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
        account_block(items, opts, b, block_meta_[b], sc, st);
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
    // Certified commutative-monoid functors replay block-parallel via
    // per-target grouping; everything else replays serially in warp/lane
    // order. Either way, only the live blocks Phase A compacted are
    // visited (per-chunk lists concatenate to ascending block order) and
    // the recorded metadata means nothing is re-derived — the replay
    // cost is proportional to active work.
    if (opts.functor.certified()) {
      replay_grouped(items, opts, n_chunks, fn, stats);
    } else {
      SweepScratch& sc = scratch_[0];  // ensured by Phase A chunk 0
      for (std::size_t c = 0; c < n_chunks; ++c) {
        for (const std::size_t b : chunk_live_[c]) {
          functional_block(items, b, block_meta_[b], sc, fn, stats);
        }
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

  /// Testing only: how many sweeps took the grouped (parallel-capable)
  /// replay path since construction. Lets tests assert that a certified
  /// functor actually exercised the grouped replay and that an
  /// order-sensitive one fell back to serial.
  [[nodiscard]] std::uint64_t grouped_replays_for_test() const {
    return grouped_replays_;
  }

 private:
  /// Per-block metadata recorded during gate evaluation and reused by
  /// accounting, the functional replay, and the grouped-replay record
  /// layout.
  struct BlockMeta {
    std::uint64_t bits;  // step-0 live mask: lane l gated in with edges
    std::uint64_t recs;  // gated-in lane-steps = replay records emitted
    NodeId max_len;      // longest gated-in item (warp step count)
  };

  /// One candidate edge update captured for the grouped replay.
  struct ReplayRec {
    NodeId u;
    NodeId v;
    Weight w;
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
  /// the iteration space. The grouped replay re-coarsens to one replay
  /// chunk per kChunksPerWorker accounting chunks (~= one per worker):
  /// its per-chunk histograms cost O(chunks * slots) memory, so slack
  /// that helps Phase A would hurt here.
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
  /// caller-provided scratch so concurrent replays of distinct blocks
  /// (and nested engines) cannot alias.
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

  /// Grouped (parallel-capable) replay for certified functors.
  ///
  /// Serial replay visits candidate updates in lex order (block b, step
  /// j, lane l). Under the FunctorTraits contract only the relative
  /// order of *same-target* calls is observable, so the replay:
  ///
  ///   1. emits every candidate record block-major (= lex order) and
  ///      histograms records per merge target, per replay chunk;
  ///   2. turns the histograms into per-(chunk, target) write cursors
  ///      with a count–scan–scatter (the graph/rebuild idiom), giving
  ///      each target a contiguous index list whose order is exactly
  ///      the serial lex order — for ANY chunking, because chunks cover
  ///      ascending block ranges and the scatter walks each chunk's
  ///      records in lex order;
  ///   3. absorbs each target's candidates in that order, in parallel
  ///      across targets, recording each call's commit flag. Per-target
  ///      FP accumulation order equals the serial engine's, so even
  ///      rounded float sums are bit-identical;
  ///   4. re-walks the blocks (parallel over replay chunks, per-worker
  ///      lane tables) replaying the stored commit flags through the
  ///      exact serial commit/conflict accounting, and reduces the
  ///      per-chunk stats in ascending block order.
  ///
  /// Every pass writes disjoint slots at positions fixed by the record
  /// layout alone, so stats and functional state are byte-identical to
  /// the serial oracle at ANY thread count or chunking. Tasks run on
  /// the persistent pool; on a one-worker machine they execute inline
  /// on the caller, in ascending order.
  template <typename EdgeFn>
  void replay_grouped(std::span<const WorkItem> items, const SweepOptions& opts,
                      std::size_t n_chunks, EdgeFn&& fn, KernelStats& stats) {
    grouped_replays_ += 1;
    detail::note_grouped_replay();
    const std::uint32_t ws = config_.warp_size;
    const auto targets = graph_->targets();
    const auto weights = graph_->weights();
    const bool has_weights = !weights.empty();
    const bool by_dst = opts.functor.target == MergeTarget::Dst;
    const std::size_t n_slots = graph_->num_slots();
    // Replay chunks: groups of kChunksPerWorker accounting chunks, so
    // the histogram footprint tracks workers, not Phase A's 4x slack.
    const std::size_t n_replay =
        (n_chunks + kChunksPerWorker - 1) / kChunksPerWorker;
    auto phase_hi = [&](std::size_t rc) {
      return std::min((rc + 1) * kChunksPerWorker, n_chunks);
    };

    // Pass 1 (serial, tiny): record bases. Blocks are laid out in lex
    // order: per-chunk live lists concatenate ascending.
    chunk_rec_begin_.assign(n_chunks + 1, 0);
    if (blk_rec_base_.size() < block_meta_.size()) {
      blk_rec_base_.resize(block_meta_.size());
    }
    std::size_t total = 0;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      chunk_rec_begin_[c] = total;
      for (const std::size_t b : chunk_live_[c]) {
        blk_rec_base_[b] = total;
        total += static_cast<std::size_t>(block_meta_[b].recs);
      }
    }
    chunk_rec_begin_[n_chunks] = total;
    if (total == 0) return;
    GRAFFIX_CHECK(total <= 0xffffffffull,
                  "grouped replay: %zu records overflow the u32 order index",
                  total);
    rec_.resize(total);
    rec_commit_.resize(total);
    rec_order_.resize(total);
    cnt_.resize(n_replay * n_slots);
    if (tgt_off_.size() < n_slots + 1) tgt_off_.resize(n_slots + 1);
    // Arm the side channel's per-record capture: record index == serial
    // call order, so its post-absorb merge reproduces the serial fold.
    SideChannel* const side = opts.side;
    if (side != nullptr) side->begin_grouped(total);

    // Pass 2: emit records block-major and histogram per (chunk, target).
    parallel_tasks(n_replay, [&](std::size_t rc) {
      std::uint64_t* cnt = cnt_.data() + rc * n_slots;
      std::fill_n(cnt, n_slots, std::uint64_t{0});
      const std::size_t p_hi = phase_hi(rc);
      for (std::size_t pc = rc * kChunksPerWorker; pc < p_hi; ++pc) {
        for (const std::size_t b : chunk_live_[pc]) {
          const BlockMeta& meta = block_meta_[b];
          const WorkItem* block = items.data() + b * ws;
          std::size_t r = blk_rec_base_[b];
          std::uint64_t live = meta.bits;
          for (NodeId j = 0; j < meta.max_len; ++j) {
            for (std::uint64_t m = live; m != 0; m &= m - 1) {
              const auto l = static_cast<std::uint32_t>(std::countr_zero(m));
              const WorkItem& item = block[l];
              if (j + 1 == item.edge_count) live &= ~(std::uint64_t{1} << l);
              const EdgeId e = item.edge_begin + j;
              const NodeId v = targets[e];
              // graffix-lint: allow(R5) r walks [blk_rec_base_[b], +meta.recs), and blocks are partitioned across replay chunks — record ranges are disjoint by construction
              rec_[r] = {item.src, v, has_weights ? weights[e] : Weight{1}};
              cnt[by_dst ? v : item.src] += 1;
              ++r;
            }
          }
        }
      }
    });

    // Pass 3: per-target offsets + per-(chunk, target) write cursors.
    // Two sweeps over even slot ranges with a tiny serial scan between
    // them; every cursor ends up absolute, ordered (ascending chunk,
    // within-chunk lex) = global lex order per target.
    range_total_.assign(n_replay + 1, 0);
    const std::size_t slots_per = n_slots / n_replay;
    const std::size_t slots_rem = n_slots % n_replay;
    auto slot_begin = [&](std::size_t t) {
      return t * slots_per + std::min(t, slots_rem);
    };
    parallel_tasks(n_replay, [&](std::size_t t) {
      std::uint64_t sum = 0;
      const std::size_t s_hi = slot_begin(t + 1);
      for (std::size_t s = slot_begin(t); s < s_hi; ++s) {
        for (std::size_t rc = 0; rc < n_replay; ++rc) {
          sum += cnt_[rc * n_slots + s];
        }
      }
      range_total_[t] = sum;
    });
    std::uint64_t running = 0;
    for (std::size_t t = 0; t < n_replay; ++t) {
      const std::uint64_t tmp = range_total_[t];
      range_total_[t] = running;
      running += tmp;
    }
    parallel_tasks(n_replay, [&](std::size_t t) {
      std::uint64_t cur = range_total_[t];
      const std::size_t s_hi = slot_begin(t + 1);
      for (std::size_t s = slot_begin(t); s < s_hi; ++s) {
        tgt_off_[s] = cur;
        for (std::size_t rc = 0; rc < n_replay; ++rc) {
          std::uint64_t& c = cnt_[rc * n_slots + s];
          const std::uint64_t n = c;
          c = cur;
          cur += n;
        }
      }
    });
    tgt_off_[n_slots] = total;

    // Pass 4: scatter record ids to their target's list.
    parallel_tasks(n_replay, [&](std::size_t rc) {
      std::uint64_t* cur = cnt_.data() + rc * n_slots;
      const std::size_t lo = chunk_rec_begin_[rc * kChunksPerWorker];
      const std::size_t hi = chunk_rec_begin_[phase_hi(rc)];
      for (std::size_t r = lo; r < hi; ++r) {
        const NodeId key = by_dst ? rec_[r].v : rec_[r].u;
        rec_order_[cur[key]++] = static_cast<std::uint32_t>(r);
      }
    });

    // Pass 5: absorb each target's candidates in serial lex order,
    // parallel across record-balanced target ranges.
    absorb_split_.assign(n_replay + 1, 0);
    absorb_split_[n_replay] = n_slots;
    for (std::size_t p = 1; p < n_replay; ++p) {
      const std::uint64_t pos = static_cast<std::uint64_t>(total) * p / n_replay;
      const auto it = std::lower_bound(tgt_off_.begin(),
                                       tgt_off_.begin() + n_slots + 1, pos);
      absorb_split_[p] = static_cast<std::size_t>(it - tgt_off_.begin());
      if (absorb_split_[p] > n_slots) absorb_split_[p] = n_slots;
    }
    parallel_tasks(n_replay, [&](std::size_t p) {
      const std::size_t s_hi = absorb_split_[p + 1];
      for (std::size_t s = absorb_split_[p]; s < s_hi; ++s) {
        const std::uint64_t i_hi = tgt_off_[s + 1];
        for (std::uint64_t i = tgt_off_[s]; i < i_hi; ++i) {
          const std::uint32_t r = rec_order_[i];
          const ReplayRec& rec = rec_[r];
          if (side != nullptr) side->begin_call(r);
          rec_commit_[r] = fn(rec.u, rec.v, rec.w) ? 1 : 0;
        }
      }
    });
    // Fold the captured side effects in ascending record order — the
    // serial (block, step, lane) call order — before anything reads the
    // channel. Pass 6 only replays commit flags; it never calls fn.
    if (side != nullptr) side->merge_grouped();

    // Pass 6: replay the stored commit flags through the serial
    // commit/conflict accounting, per replay chunk, reduced ascending.
    replay_stats_.assign(n_replay, KernelStats{});
    parallel_tasks(n_replay, [&](std::size_t rc) {
      KernelStats& st = replay_stats_[rc];
      SweepScratch& sc = scratch_[rc];  // ensured by Phase A (rc < n_chunks)
      const std::size_t p_hi = phase_hi(rc);
      for (std::size_t pc = rc * kChunksPerWorker; pc < p_hi; ++pc) {
        for (const std::size_t b : chunk_live_[pc]) {
          const BlockMeta& meta = block_meta_[b];
          const WorkItem* block = items.data() + b * ws;
          std::size_t r = blk_rec_base_[b];
          std::uint64_t live = meta.bits;
          for (NodeId j = 0; j < meta.max_len; ++j) {
            const std::uint64_t step = live;
            std::uint32_t commits = 0;
            for (std::uint64_t m = step; m != 0; m &= m - 1) {
              const auto l = static_cast<std::uint32_t>(std::countr_zero(m));
              if (j + 1 == block[l].edge_count) {
                live &= ~(std::uint64_t{1} << l);
              }
              const NodeId v = rec_[r].v;
              sc.lane_dst[l] = v;
              if (rec_commit_[r]) {
                ++commits;
                if (conflicts_earlier_lane(step, l, sc.lane_dst.data(), v)) {
                  st.atomic_conflicts += 1;
                }
              }
              ++r;
            }
            st.atomic_commits += commits;
          }
        }
      }
    });
    for (std::size_t rc = 0; rc < n_replay; ++rc) stats += replay_stats_[rc];
  }

  const Csr* graph_;
  SimConfig config_;
  ArenaVector<BlockMeta> block_meta_;  // per warp block, one sweep's worth
  std::vector<std::vector<std::size_t>> chunk_live_;  // live block ids
  ArenaVector<KernelStats> chunk_stats_;
  std::vector<SweepScratch> scratch_;
  // Grouped-replay scratch; persistent across sweeps to amortize
  // allocation (resize keeps capacity in steady state) and arena-pooled
  // so successive Engine instances inherit each other's blocks.
  ArenaVector<ReplayRec> rec_;            // candidates, block-major = lex
  ArenaVector<std::uint8_t> rec_commit_;  // fn's verdict per record
  ArenaVector<std::uint32_t> rec_order_;  // record ids grouped by target
  ArenaVector<std::uint64_t> cnt_;        // per-(chunk, target) cursors
  ArenaVector<std::uint64_t> tgt_off_;    // per-target group begin
  ArenaVector<std::uint64_t> range_total_;
  ArenaVector<std::size_t> absorb_split_;
  ArenaVector<std::size_t> blk_rec_base_;
  ArenaVector<std::size_t> chunk_rec_begin_;
  ArenaVector<KernelStats> replay_stats_;
  std::uint64_t grouped_replays_ = 0;
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
