#include "core/runners.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_set>

#include "algorithms/bc.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "util/arena.hpp"
#include "util/bitset.hpp"
#include "util/macros.hpp"
#include "util/parallel.hpp"

namespace graffix::core {

const char* algorithm_name(Algorithm alg) {
  switch (alg) {
    case Algorithm::SSSP:
      return "SSSP";
    case Algorithm::MST:
      return "MST";
    case Algorithm::SCC:
      return "SCC";
    case Algorithm::PR:
      return "PR";
    case Algorithm::BC:
      return "BC";
  }
  return "?";
}

std::vector<Algorithm> all_algorithms() {
  return {Algorithm::SSSP, Algorithm::MST, Algorithm::SCC, Algorithm::PR,
          Algorithm::BC};
}

namespace {

using baselines::Strategy;
using sim::Engine;
using sim::KernelStats;
using sim::SweepOptions;
using sim::WorkItem;
using transform::ClusterSchedule;
using transform::ReplicaMap;

/// Shared machinery for all runners: work-list construction respecting
/// the warp order, global sweeps, cluster inner sweeps, confluence, and
/// the final stats -> seconds conversion.
///
/// The warp layout and the cluster/boundary graph split are immutable
/// once built, so they live in a read-only Layout that forked drivers
/// share: run_bc runs one fork per Brandes source (possibly
/// concurrently) without rebuilding the split, then folds the forks'
/// counters back in source order.
class Driver {
 public:
  /// Immutable per-run layout shared between a driver and its forks.
  struct Layout {
    std::vector<NodeId> order;
    std::vector<NodeId> pos;
    bool has_clusters = false;
    Csr cluster_graph;
    Csr boundary_graph;
    std::vector<std::vector<WorkItem>> cluster_items;
  };

  /// uses_weights: whether the algorithm actually streams the weights
  /// array (SSSP/MST); PR/BC/SCC ignore weights and must not pay for
  /// them. Passing a layout forks the driver: it reuses the warp order
  /// and cluster split but accumulates its own stats from zero.
  Driver(const Csr& graph, const RunConfig& config, bool uses_weights,
         std::shared_ptr<const Layout> layout = nullptr)
      : graph_(graph),
        config_(config),
        strategy_(baselines::make_strategy(config.baseline)),
        layout_(layout != nullptr ? std::move(layout)
                                  : build_layout(graph, config)) {
    opts_.edge_mode = strategy_->edge_load_mode();
    opts_.weighted = uses_weights && graph.has_weights();
    engine_.emplace(exec_graph(), config.sim);
    if (layout_->has_clusters) {
      cluster_engine_.emplace(layout_->cluster_graph, config.sim);
      cluster_item_memos_.resize(layout_->cluster_items.size());
    }
  }

  [[nodiscard]] bool data_driven() const { return strategy_->data_driven(); }
  [[nodiscard]] const std::vector<NodeId>& order() const {
    return layout_->order;
  }
  [[nodiscard]] const Csr& graph() const { return graph_; }
  [[nodiscard]] KernelStats& stats() { return stats_; }
  [[nodiscard]] std::shared_ptr<const Layout> layout() const {
    return layout_;
  }
  [[nodiscard]] std::uint64_t primary_items() const { return primary_items_; }
  [[nodiscard]] std::uint64_t primary_launches() const {
    return primary_launches_;
  }

  /// Folds a fork's accumulated counters into this driver, as if its
  /// sweeps had run here. Callers fold forks in source order so the
  /// totals accumulate exactly as a single serial driver would.
  void absorb(const KernelStats& stats, std::uint64_t items,
              std::uint64_t launches) {
    stats_ += stats;
    primary_items_ += items;
    primary_launches_ += launches;
  }

  /// Global sweep over `active` slots (reordered into warp order here).
  template <typename Fn>
  void sweep(std::vector<NodeId>& active, Fn&& fn) {
    order_active(active);
    sweep_impl(active, [](NodeId) { return true; }, std::forward<Fn>(fn));
  }

  /// Global sweep over every slot in warp order.
  template <typename Fn>
  void sweep_all(Fn&& fn) {
    sweep_impl(layout_->order, [](NodeId) { return true; },
               std::forward<Fn>(fn));
  }

  /// Topology-driven sweep with a per-vertex gate: every slot is assigned
  /// to a lane, but lanes whose gate(src) fails only load their state and
  /// idle (the classic "if (!active(v)) return;" kernel prologue). This
  /// is what keeps topology-driven baselines from paying full gather
  /// traffic for untouched vertices while still paying divergence.
  template <typename Gate, typename Fn>
  void sweep_all_gated(Gate&& gate, Fn&& fn) {
    sweep_impl(layout_->order, std::forward<Gate>(gate), std::forward<Fn>(fn));
  }

  /// One round of shared-memory inner iterations: every cluster selected
  /// by `want(cluster_index)` is swept once over its intra-cluster edges
  /// with attributes in shared memory. Round 0 stages the subgraph's
  /// edges into shared memory (and is charged as one kernel launch);
  /// later rounds reuse them (§3's temporal-reuse argument).
  template <typename Fn, typename Want>
  void cluster_phase_round(std::uint32_t round, Fn&& fn, Want&& want) {
    if (config_.clusters == nullptr || config_.clusters->empty()) return;
    bool any = false;
    // Round 0 streams the cluster edges in (the staging load itself);
    // later rounds within the same launch reuse them (§3).
    const SweepOptions copts = cluster_opts(/*edges_resident=*/round > 0);
    const auto& clusters = config_.clusters->clusters;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      if (!want(c)) continue;
      any = true;
      cluster_engine_->sweep(layout_->cluster_items[c], copts, fn, stats_,
                             &cluster_item_memos_[c]);
    }
    if (any && round == 0) stats_.sweeps += 1;  // the phase is one launch
  }

  /// Full shared-memory phase (§3): each cluster selected by `want` runs
  /// its own inner_iterations rounds.
  template <typename Fn, typename Want>
  void cluster_phase(Fn&& fn, Want&& want) {
    if (config_.clusters == nullptr || config_.clusters->empty()) return;
    const auto& clusters = config_.clusters->clusters;
    std::uint32_t max_rounds = 0;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      if (want(c)) max_rounds = std::max(max_rounds, clusters[c].inner_iterations);
    }
    for (std::uint32_t r = 0; r < max_rounds; ++r) {
      cluster_phase_round(r, fn, [&](std::size_t c) {
        return want(c) && clusters[c].inner_iterations > r;
      });
    }
  }

  [[nodiscard]] const transform::ClusterSchedule* clusters() const {
    return config_.clusters;
  }

 private:
  /// One logical kernel over the given slots. With a cluster schedule
  /// (§3), the kernel is split in two parts that together cover exactly
  /// the same edges: the boundary part (all edges that leave or cross
  /// clusters) runs against global memory, while each cluster's internal
  /// edges are processed with attributes — and, after the first launch,
  /// the staged subgraph itself — resident in shared memory.
  template <typename Gate, typename Fn>
  void sweep_impl(std::span<const NodeId> slots_in_order, Gate&& gate,
                  Fn&& fn) {
    const Work work = work_for(slots_in_order);
    track_primary(work.items.size());
    // Each lane's gate check is one coalesced state load.
    engine_->charge_uniform_kernel(work.items.size(), 1.0, stats_);
    stats_.sweeps -= 1;  // the gate load is part of this launch
    engine_->sweep_gated(work.items, opts_, gate, fn, stats_, work.memo);
    if (has_clusters()) {
      const Work cwork = cluster_work_for(slots_in_order);
      if (!cwork.items.empty()) {
        // Shared memory does not survive kernel launches: every sweep
        // re-streams the cluster edges from global memory (that IS the
        // staging load); only inner rounds within one launch (see
        // cluster_phase_round) get resident edges. Not its own launch:
        // it is part of the boundary sweep's.
        primary_items_ += cwork.items.size();
        cluster_engine_->sweep_gated(cwork.items, cluster_opts(false), gate,
                                     fn, stats_, cwork.memo);
      }
      charge_staging(slots_in_order.size());
    }
    charge_aux(slots_in_order.size());
  }

  /// True when `slots` is this driver's invariant warp-order list and
  /// the strategy's decomposition is a pure function of (graph, slots) —
  /// the conditions under which a work layout built once stays valid for
  /// the driver's whole lifetime. (Graph, order, and strategy are all
  /// fixed at construction, so cached layouts never need invalidating;
  /// swapping any of them means building a new Driver.)
  [[nodiscard]] bool invariant_order(std::span<const NodeId> slots) const {
    return strategy_->work_is_slot_invariant() &&
           slots.data() == layout_->order.data() &&
           slots.size() == layout_->order.size();
  }

  /// A sweep's work list, with the accounting memo that lives beside it
  /// when the list is invariant (nullptr for frontier lists, which are
  /// rebuilt every sweep).
  struct Work {
    std::span<const WorkItem> items;
    sim::BlockMemo* memo = nullptr;
  };

  /// Work list for one boundary sweep: cached across iterations for the
  /// invariant warp-order list, rebuilt per sweep for frontiers.
  [[nodiscard]] Work work_for(std::span<const NodeId> slots) {
    if (invariant_order(slots)) {
      if (!cached_work_built_) {
        strategy_->make_work(exec_graph(), slots, cached_work_);
        cached_work_built_ = true;
      }
      return {cached_work_, &cached_work_memo_};
    }
    strategy_->make_work(exec_graph(), slots, work_);
    return {work_};
  }

  /// Per-vertex items over the intra-cluster subgraph for the resident
  /// members of `slots`, cached like work_for.
  [[nodiscard]] Work cluster_work_for(std::span<const NodeId> slots) {
    const bool invariant = invariant_order(slots);
    if (invariant && cached_cluster_work_built_) {
      return {cached_cluster_work_, &cached_cluster_work_memo_};
    }
    std::vector<WorkItem>& out = invariant ? cached_cluster_work_ : cluster_work_;
    out.clear();
    const Csr& cgraph = layout_->cluster_graph;
    const auto& resident = config_.clusters->resident;
    for (NodeId s : slots) {
      if (resident[s] == kInvalidNode) continue;
      const NodeId d = cgraph.degree(s);
      if (d > 0) out.push_back({s, cgraph.edge_begin(s), d});
    }
    if (!invariant) return {out};
    cached_cluster_work_built_ = true;
    return {out, &cached_cluster_work_memo_};
  }

  /// Options for a shared-memory cluster sweep (the boundary sweep's
  /// cluster part and the inner refinement rounds share everything but
  /// edge residency).
  [[nodiscard]] SweepOptions cluster_opts(bool edges_resident) const {
    SweepOptions copts;
    copts.edge_mode = opts_.edge_mode;
    copts.weighted = opts_.weighted;
    copts.attr_space = sim::AttrSpace::Shared;
    copts.charge_launch = false;
    copts.edges_resident = edges_resident;
    return copts;
  }

  [[nodiscard]] bool has_clusters() const { return layout_->has_clusters; }

  /// Graph the boundary sweeps execute on.
  [[nodiscard]] const Csr& exec_graph() const {
    return has_clusters() ? layout_->boundary_graph : graph_;
  }

  /// Reorders `active` into ascending warp position — exactly the order
  /// the previous comparator std::sort produced — in O(n) plus a scan of
  /// the touched bitmap span: scatter each slot to its position with
  /// epoch-stamped duplicate counts, then walk set position bits in
  /// ascending word/bit order. Steady-state it allocates nothing; tiny
  /// frontiers take an insertion sort instead, since scanning the bitmap
  /// span would dominate them.
  void order_active(std::vector<NodeId>& active) {
    const auto& pos = layout_->pos;
    const auto& order = layout_->order;
    if (active.size() < 2) return;
    if (active.size() <= 32) {
      for (std::size_t i = 1; i < active.size(); ++i) {
        const NodeId a = active[i];
        std::size_t k = i;
        while (k > 0 && pos[active[k - 1]] > pos[a]) {
          active[k] = active[k - 1];
          --k;
        }
        active[k] = a;
      }
      return;
    }
    OrderScratch& sc = order_scratch_;
    if (sc.epoch.empty()) {
      sc.count.assign(pos.size(), 0);
      sc.epoch.assign(pos.size(), 0);
      sc.word.assign((pos.size() + 63) / 64, 0);
    }
    sc.gen += 1;
    std::size_t wmin = std::numeric_limits<std::size_t>::max();
    std::size_t wmax = 0;
    for (const NodeId a : active) {
      const NodeId p = pos[a];
      if (sc.epoch[p] != sc.gen) {
        sc.epoch[p] = sc.gen;
        sc.count[p] = 0;
      }
      sc.count[p] += 1;
      const std::size_t w = p / 64;
      sc.word[w] |= std::uint64_t{1} << (p % 64);
      wmin = std::min(wmin, w);
      wmax = std::max(wmax, w);
    }
    std::size_t k = 0;
    for (std::size_t w = wmin; w <= wmax; ++w) {
      std::uint64_t bits = sc.word[w];
      if (bits == 0) continue;
      sc.word[w] = 0;
      while (bits != 0) {
        const auto p = static_cast<NodeId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
        for (std::uint32_t c = sc.count[p]; c > 0; --c) {
          active[k++] = order[p];
        }
      }
    }
  }

 public:

  /// Confluence (§2.4): finite-mean merge of every replica group; members
  /// whose value changed are appended to `changed` (so data-driven runs
  /// re-activate them).
  void confluence(std::span<double> attr, std::vector<NodeId>* changed) {
    if (config_.replicas == nullptr || config_.replicas->empty()) return;
    std::uint64_t touched = 0;
    for (const auto& group : config_.replicas->groups) {
      if (group.size() < 2) continue;
      double sum = 0.0;
      std::size_t finite = 0;
      for (NodeId s : group) {
        if (std::isfinite(attr[s])) {
          sum += attr[s];
          ++finite;
        }
      }
      touched += group.size();
      if (finite == 0) continue;
      const double merged = sum / static_cast<double>(finite);
      for (NodeId s : group) {
        // Relative epsilon: mean-merge perturbations decay geometrically
        // toward the joint fixpoint; without a tolerance the run would
        // chase ulp-level oscillations forever.
        if (std::abs(attr[s] - merged) >
            config_.confluence_epsilon * (1.0 + std::abs(merged))) {
          attr[s] = merged;
          if (changed != nullptr) changed->push_back(s);
        } else {
          attr[s] = merged;
        }
      }
    }
    engine_->charge_uniform_kernel(touched, 2.0, stats_);
  }

  /// Label confluence for SCC colors / MST components. The merge MUST
  /// follow the algorithm's propagation direction (max for SCC's forward
  /// max-coloring, min for MST's hook-to-smaller), otherwise merge and
  /// propagation ping-pong forever.
  void confluence_labels(std::span<NodeId> labels, std::vector<NodeId>* changed,
                         bool take_max) {
    if (config_.replicas == nullptr || config_.replicas->empty()) return;
    std::uint64_t touched = 0;
    for (const auto& group : config_.replicas->groups) {
      if (group.size() < 2) continue;
      NodeId merged = take_max ? 0 : kInvalidNode;
      bool any = false;
      for (NodeId s : group) {
        if (labels[s] == kInvalidNode) continue;
        any = true;
        merged = take_max ? std::max(merged, labels[s])
                          : std::min(merged, labels[s]);
      }
      touched += group.size();
      if (!any) continue;
      for (NodeId s : group) {
        if (labels[s] != merged && labels[s] != kInvalidNode) {
          labels[s] = merged;
          if (changed != nullptr) changed->push_back(s);
        }
      }
    }
    engine_->charge_uniform_kernel(touched, 2.0, stats_);
  }

  /// Charges a plain streaming kernel (attribute init / reset / reduce).
  void charge_stream(std::uint64_t items, double tx_per_item = 1.0) {
    engine_->charge_uniform_kernel(items, tx_per_item, stats_);
  }

  /// Converts accumulated stats into simulated seconds. Latency hiding is
  /// derived from the *primary* sweeps only — the graph kernels are what
  /// keep warps resident; tiny bookkeeping kernels must not dilute it.
  /// Shared-memory residency costs occupancy (see SimConfig).
  [[nodiscard]] double seconds() const {
    const sim::CostModel model(config_.sim);
    const double launches = std::max<double>(1.0, static_cast<double>(primary_launches_));
    double avg_warps =
        static_cast<double>(primary_items_) /
        (launches * static_cast<double>(config_.sim.warp_size));
    if (has_clusters()) {
      const double resident_fraction =
          static_cast<double>(config_.clusters->resident_count()) /
          std::max<double>(1.0, graph_.num_slots());
      avg_warps /=
          1.0 + config_.sim.smem_occupancy_penalty * resident_fraction;
    }
    return model.seconds(stats_, avg_warps);
  }

 private:
  void track_primary(std::size_t items) {
    primary_items_ += items;
    primary_launches_ += 1;
  }

  void charge_aux(std::size_t active_count) {
    const std::uint64_t aux = strategy_->aux_items_per_sweep(active_count);
    if (aux > 0) engine_->charge_uniform_kernel(aux, 1.0, stats_);
  }

  /// Shared-memory residency is not free: every sweep that benefits from
  /// resident clusters stages their attributes in (and writes dirty ones
  /// back). The charge scales with the fraction of the graph the sweep
  /// touches — frontier sweeps only stage the clusters they process.
  void charge_staging(std::size_t active_count) {
    if (config_.clusters == nullptr || config_.clusters->empty()) return;
    const double fraction =
        std::min(1.0, static_cast<double>(active_count) /
                          std::max<double>(1.0, graph_.num_slots()));
    const auto items = static_cast<std::uint64_t>(
        fraction * static_cast<double>(config_.clusters->resident_count()));
    // ~32B per member per launch: attribute load + writeback, block
    // synchronization, and shared-memory bookkeeping. This is what makes
    // sparse (low-reuse) clusters a net loss, per §5.3's discussion.
    if (items > 0) engine_->charge_uniform_kernel(items, 8.0, stats_);
  }

  /// Builds the immutable layout: the warp order, its inverse, and (with
  /// a cluster schedule) the cluster/boundary graph split.
  [[nodiscard]] static std::shared_ptr<const Layout> build_layout(
      const Csr& graph, const RunConfig& config) {
    auto layout = std::make_shared<Layout>();
    const NodeId slots = graph.num_slots();
    if (!config.warp_order.empty()) {
      GRAFFIX_CHECK(config.warp_order.size() == graph.num_slots(),
                    "warp order covers %zu of %u slots",
                    config.warp_order.size(), graph.num_slots());
      layout->order.assign(config.warp_order.begin(), config.warp_order.end());
    } else {
      // Hole slots stay in the warp layout as idle lanes: the coalescing
      // transform's chunk alignment depends on warp w covering slots
      // [w*32, w*32+32) exactly (§2.2-2.3); compacting holes out would
      // shear every later chunk off its warp.
      layout->order.resize(slots);
      std::iota(layout->order.begin(), layout->order.end(), NodeId{0});
    }
    layout->pos.assign(slots, kInvalidNode);
    for (std::size_t i = 0; i < layout->order.size(); ++i) {
      layout->pos[layout->order[i]] = static_cast<NodeId>(i);
    }
    if (config.clusters != nullptr && !config.clusters->empty()) {
      build_cluster_split(graph, *config.clusters, *layout);
    }
    return layout;
  }

  /// Splits the input graph into the intra-cluster subgraph (processed in
  /// shared memory) and the complementary boundary graph. Every edge of
  /// the input lands in exactly one of the two.
  static void build_cluster_split(const Csr& graph,
                                  const ClusterSchedule& schedule,
                                  Layout& layout) {
    const NodeId slots = graph.num_slots();
    const auto& resident = schedule.resident;
    const bool weighted = graph.has_weights();

    auto is_internal = [&](NodeId u, NodeId v) {
      return resident[u] != kInvalidNode && resident[u] == resident[v];
    };

    std::vector<EdgeId> coff(static_cast<std::size_t>(slots) + 1, 0);
    std::vector<EdgeId> boff(static_cast<std::size_t>(slots) + 1, 0);
    for (NodeId u = 0; u < slots; ++u) {
      for (NodeId v : graph.neighbors(u)) {
        (is_internal(u, v) ? coff : boff)[u + 1]++;
      }
    }
    for (NodeId u = 0; u < slots; ++u) {
      coff[u + 1] += coff[u];
      boff[u + 1] += boff[u];
    }
    std::vector<NodeId> ctargets(coff.back()), btargets(boff.back());
    std::vector<Weight> cweights(weighted ? coff.back() : 0);
    std::vector<Weight> bweights(weighted ? boff.back() : 0);
    std::vector<EdgeId> ccur(coff.begin(), coff.end() - 1);
    std::vector<EdgeId> bcur(boff.begin(), boff.end() - 1);
    for (NodeId u = 0; u < slots; ++u) {
      const auto nbrs = graph.neighbors(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const NodeId v = nbrs[i];
        if (is_internal(u, v)) {
          ctargets[ccur[u]] = v;
          if (weighted) cweights[ccur[u]] = graph.edge_weights(u)[i];
          ++ccur[u];
        } else {
          btargets[bcur[u]] = v;
          if (weighted) bweights[bcur[u]] = graph.edge_weights(u)[i];
          ++bcur[u];
        }
      }
    }
    std::vector<std::uint8_t> holes(graph.holes().begin(),
                                    graph.holes().end());
    layout.has_clusters = true;
    layout.cluster_graph = Csr(std::move(coff), std::move(ctargets),
                               std::move(cweights), holes);
    layout.boundary_graph = Csr(std::move(boff), std::move(btargets),
                                std::move(bweights), std::move(holes));
    layout.cluster_items.resize(schedule.clusters.size());
    for (std::size_t c = 0; c < schedule.clusters.size(); ++c) {
      for (NodeId m : schedule.clusters[c].members) {
        layout.cluster_items[c].push_back({m, layout.cluster_graph.edge_begin(m),
                                           layout.cluster_graph.degree(m)});
      }
    }
  }

  const Csr& graph_;
  const RunConfig& config_;
  std::optional<Engine> engine_;
  std::unique_ptr<Strategy> strategy_;
  std::shared_ptr<const Layout> layout_;
  std::vector<WorkItem> work_;  // frontier sweeps: rebuilt per sweep
  // Invariant warp-order layouts, built lazily once per driver and
  // reused every iteration (see work_for / invariant_order).
  std::vector<WorkItem> cached_work_;
  bool cached_work_built_ = false;
  // Accounting memos, each beside the invariant list it describes. The
  // per-cluster memos belong to the driver, not the shared Layout:
  // concurrent BC forks sweep the same cluster lists.
  sim::BlockMemo cached_work_memo_;
  SweepOptions opts_;
  KernelStats stats_;
  std::uint64_t primary_items_ = 0;
  std::uint64_t primary_launches_ = 0;

  std::optional<Engine> cluster_engine_;
  std::vector<WorkItem> cluster_work_;
  std::vector<WorkItem> cached_cluster_work_;
  bool cached_cluster_work_built_ = false;
  sim::BlockMemo cached_cluster_work_memo_;
  std::vector<sim::BlockMemo> cluster_item_memos_;  // per cluster_items[c]

  /// order_active() scratch: duplicate counts + touched-position bitmap,
  /// both epoch-stamped so no per-sweep clearing is needed. A Driver, like
  /// an Engine, belongs to one thread of control (BC forks one per source
  /// task), so this is per-worker scratch, arena-pooled like the
  /// engine's SweepScratch.
  struct OrderScratch {
    ArenaVector<std::uint32_t> count;
    ArenaVector<std::uint64_t> epoch;
    ArenaVector<std::uint64_t> word;
    std::uint64_t gen = 0;
  };
  OrderScratch order_scratch_;
};

// ---------------------------------------------------------------------------
// SSSP
// ---------------------------------------------------------------------------

RunOutput run_sssp(const Csr& graph, const RunConfig& config) {
  const NodeId slots = graph.num_slots();
  Driver driver(graph, config, /*uses_weights=*/true);
  RunOutput out;
  out.attr.assign(slots, std::numeric_limits<double>::infinity());
  auto& dist = out.attr;

  NodeId source = config.sssp_source;
  GRAFFIX_CHECK(source < slots && !graph.is_hole(source), "bad source %u",
                source);
  dist[source] = 0.0;
  driver.charge_stream(slots);  // distance initialization

  // Jacobi (level-synchronous) semantics: one sweep = one kernel launch
  // reading the previous iteration's distances; a relaxation travels one
  // hop per launch, as on the device. `dist` is the stable snapshot,
  // `next` accumulates this sweep's improvements.
  std::vector<double> next(dist);
  AtomicBitset changed_mask(slots);
  std::vector<NodeId> active{source};
  std::vector<NodeId> changed;
  // Relaxation tolerance matches the confluence epsilon: once the
  // mean-merge perturbation is below it, relax must not chase the
  // residual either (the two tolerances together bound the oscillation).
  const double eps = config.confluence_epsilon;

  // Stall detection for the approximate paths: replica-merge residuals
  // decay geometrically, and chains of replica groups can keep the
  // changed set non-empty for dozens of iterations after all real
  // progress is done. We track (a) discoveries (a vertex turning finite
  // — always real progress) and (b) the total improvement relative to
  // the magnitudes involved, and stop after two consecutive iterations
  // of neither. The engine calls functors in serial warp/lane order, so
  // the rounded sums and the changed-list order are deterministic.
  double improvement = 0.0;
  double improvement_base = 0.0;
  bool discovered = false;
  // Commits candidate distance nd to v if it improves beyond tolerance.
  auto improve = [&](NodeId v, double nd) {
    if (!(nd < next[v] - eps * (1.0 + std::abs(nd)))) return false;
    if (std::isfinite(next[v])) {
      improvement += next[v] - nd;
    } else {
      discovered = true;
    }
    improvement_base += 1.0 + std::abs(nd);
    next[v] = nd;
    if (changed_mask.set(v)) changed.push_back(v);
    return true;
  };
  auto relax = [&](NodeId u, NodeId v, Weight w) {
    return improve(v, dist[u] + static_cast<double>(w));
  };
  // Cluster inner iterations are sequential micro-launches inside shared
  // memory: they may read their own updates (that is their whole point,
  // per §3's t ~ 2x diameter reuse argument), so relax against `next`
  // (Gauss-Seidel).
  auto cluster_relax = [&](NodeId u, NodeId v, Weight w) {
    return improve(v, next[u] + static_cast<double>(w));
  };

  std::uint32_t stalled = 0;
  while (out.iterations < config.max_iterations) {
    ++out.iterations;
    changed.clear();
    changed_mask.clear();
    improvement = 0.0;
    improvement_base = 0.0;
    discovered = false;
    if (driver.data_driven()) {
      driver.sweep(active, relax);
    } else {
      driver.sweep_all_gated(
          [&](NodeId u) { return std::isfinite(dist[u]); }, relax);
    }
    // Only clusters that actually received new information this
    // iteration run their inner refinement rounds — under data-driven
    // execution most clusters see no frontier traffic most iterations,
    // and sweeping them anyway would swamp the small frontier sweeps.
    // Moreover, inner rounds only pay off against the work-inefficient
    // topology-driven baseline; on frontier baselines (already
    // work-optimal) the shared-memory benefit is the residency discount
    // alone, so the refinement is skipped entirely there.
    if (!driver.data_driven() && config.clusters != nullptr &&
        !config.clusters->empty()) {
      std::vector<std::uint8_t> touched(config.clusters->clusters.size(), 0);
      const auto& resident = config.clusters->resident;
      for (NodeId s : changed) {
        if (resident[s] != kInvalidNode) touched[resident[s]] = 1;
      }
      driver.cluster_phase(cluster_relax,
                           [&](std::size_t c) { return touched[c] != 0; });
    }
    if (out.iterations % std::max(1u, config.confluence_every) == 0) {
      driver.confluence(next, &changed);
    }
    if (changed.empty() && config.confluence_every > 1 &&
        config.replicas != nullptr && !config.replicas->empty()) {
      // Deferred-confluence cadences can stall: if every edge out of a
      // region was moved onto replicas, progress resumes only through a
      // merge. Force one before concluding the fixpoint was reached.
      driver.confluence(next, &changed);
    }
    dist = next;
    if (config.collect_trace) out.trace.push_back({out.iterations, driver.stats()});
    if (changed.empty()) break;
    if (!discovered &&
        improvement < 100.0 * eps * std::max(1.0, improvement_base)) {
      if (++stalled >= 2) break;
    } else {
      stalled = 0;
    }
    if (driver.data_driven()) {
      // Deduplicate (cluster phase / confluence may repeat slots).
      std::sort(changed.begin(), changed.end());
      changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
      active = changed;
    }
  }
  // A final merge always runs so replica copies agree in the output
  // regardless of the confluence cadence.
  if (config.confluence_every > 1) driver.confluence(dist, nullptr);
  out.attr = dist;
  out.stats = driver.stats();
  out.sim_seconds = driver.seconds();
  return out;
}

// ---------------------------------------------------------------------------
// PageRank
// ---------------------------------------------------------------------------

RunOutput run_pagerank(const Csr& graph, const RunConfig& config) {
  const NodeId slots = graph.num_slots();
  // Pull mode gathers along in-edges: the driver sweeps the transpose
  // while out-degrees (for the contribution denominators) come from the
  // forward graph. The functor's (u, v) is then (destination, source).
  std::optional<Csr> reverse;
  if (config.pr_pull) reverse.emplace(graph.transpose());
  Driver driver(config.pr_pull ? *reverse : graph, config,
                /*uses_weights=*/false);
  RunOutput out;

  NodeId n_eff = graph.num_nodes();
  if (n_eff == 0) return out;
  std::vector<double> rank(slots, 0.0), next(slots, 0.0);
  std::vector<NodeId> degree(slots);
  for (NodeId s = 0; s < slots; ++s) {
    degree[s] = graph.degree(s);
    if (!graph.is_hole(s)) rank[s] = 1.0 / n_eff;
  }
  driver.charge_stream(slots);

  const double base = (1.0 - config.pr_damping) / n_eff;
  // Convergence is measured across the *whole* iteration pipeline
  // (sweep + cluster refinement + confluence): the approximation stages
  // keep a mid-iteration delta floor, but the composite map contracts.
  std::vector<double> rank_at_start(slots);
  for (std::uint32_t iter = 0; iter < config.pr_max_iterations; ++iter) {
    ++out.iterations;
    rank_at_start = rank;
    std::fill(next.begin(), next.end(), 0.0);
    driver.charge_stream(slots);  // zeroing the accumulator

    // Clusters (if any) act purely as a residency discount here: the
    // engine serves intra-cluster gathers from shared memory. Inner
    // refinement rounds are reserved for monotone relaxations (SSSP) —
    // for PR they would fight the global power iteration's convergence.
    if (config.pr_pull) {
      // Transpose sweep: u is the gathering vertex, v its in-neighbor.
      // No atomic commit — each lane owns next[u].
      driver.sweep_all([&](NodeId u, NodeId v, Weight) {
        next[u] += rank[v] / degree[v];
        return false;
      });
    } else {
      driver.sweep_all([&](NodeId u, NodeId v, Weight) {
        next[v] += rank[u] / degree[u];
        return true;
      });
    }

    double dangling = 0.0;
    for (NodeId s = 0; s < slots; ++s) {
      if (!graph.is_hole(s) && degree[s] == 0) dangling += rank[s];
    }
    const double dangling_share = config.pr_damping * dangling / n_eff;
    driver.charge_stream(slots);  // dangling reduction

    for (NodeId s = 0; s < slots; ++s) {
      if (graph.is_hole(s)) continue;
      rank[s] = base + dangling_share + config.pr_damping * next[s];
    }
    driver.charge_stream(slots);  // apply kernel

    if (out.iterations % std::max(1u, config.confluence_every) == 0) {
      driver.confluence(rank, nullptr);
    }
    double delta = 0.0;
    for (NodeId s = 0; s < slots; ++s) {
      if (!graph.is_hole(s)) delta += std::abs(rank[s] - rank_at_start[s]);
    }
    driver.charge_stream(slots);  // convergence reduction
    if (config.collect_trace) out.trace.push_back({out.iterations, driver.stats()});
    if (delta < config.pr_tolerance) break;
  }

  if (config.confluence_every > 1) driver.confluence(rank, nullptr);
  out.attr.assign(rank.begin(), rank.end());
  out.stats = driver.stats();
  out.sim_seconds = driver.seconds();
  return out;
}

// ---------------------------------------------------------------------------
// Betweenness centrality (Algorithm 1 of the paper)
// ---------------------------------------------------------------------------

RunOutput run_bc(const Csr& graph, const RunConfig& config) {
  const NodeId slots = graph.num_slots();
  Driver driver(graph, config, /*uses_weights=*/false);
  RunOutput out;
  out.attr.assign(slots, 0.0);
  auto& bc = out.attr;

  std::vector<NodeId> sources;
  if (!config.bc_sources.empty()) {
    sources.assign(config.bc_sources.begin(), config.bc_sources.end());
  } else {
    sources = sample_bc_sources(graph, config.bc_sample_count, config.seed);
  }

  // Each Brandes pass owns its level/sigma/delta arrays and runs on a
  // forked driver sharing the base driver's layout, so sources are
  // independent and can run concurrently. Every pass fills a full-size
  // contribution vector; bc sums, stats, primary-sweep counters, and the
  // cumulative trace are folded back in source order afterwards, which
  // makes the output bit-identical at any thread count — and identical
  // to the old single-driver serial loop, whose per-source counter
  // increments these sums merely regroup (DESIGN.md §7).
  struct SourceResult {
    std::vector<double> contrib;
    KernelStats stats;
    std::uint64_t primary_items = 0;
    std::uint64_t primary_launches = 0;
  };

  const ReplicaMap* replicas = config.replicas;

  auto run_source = [&](NodeId source, SourceResult& res) {
    Driver drv(graph, config, /*uses_weights=*/false, driver.layout());
    // graffix-lint: allow(R6) per-source BFS attributes; each source task owns its own copy, so pooling would race
    std::vector<NodeId> level(slots, kInvalidNode);
    // graffix-lint: allow(R6) per-source scratch, same ownership as `level` above
    std::vector<double> sigma(slots, 0.0), delta(slots, 0.0);
    std::vector<std::vector<NodeId>> by_level;
    drv.charge_stream(slots, 3.0);  // per-source attribute reset

    // Algorithm-aware confluence for BC (the §2.4 option the paper notes
    // gives better accuracy): a replica has no in-edges, so its logical
    // level and path count are its primary's — copy them after each
    // forward sweep so the edges moved onto the replica keep propagating.
    // Newly leveled replicas are handed back so data-driven frontiers can
    // schedule them.
    auto sync_replicas_forward = [&](NodeId frontier_depth,
                                     std::vector<NodeId>* discovered) {
      if (replicas == nullptr || replicas->empty()) return;
      std::uint64_t touched = 0;
      for (const auto& group : replicas->groups) {
        const NodeId primary = group[0];
        touched += group.size();
        if (level[primary] == kInvalidNode) continue;
        for (std::size_t i = 1; i < group.size(); ++i) {
          const NodeId replica = group[i];
          if (level[replica] == kInvalidNode) {
            level[replica] = level[primary];
            if (discovered != nullptr && level[replica] == frontier_depth) {
              discovered->push_back(replica);
            }
          }
          sigma[replica] = sigma[primary];
        }
      }
      drv.charge_stream(touched, 2.0);
    };

    // graffix-lint: allow(R6) per-source frontier history (vector of per-level lists); sizes are data-dependent per source
    by_level.assign(1, {source});
    level[source] = 0;
    sigma[source] = 1.0;

    // Forward pass: level-synchronous BFS DAG with sigma accumulation.
    // Replica levels/sigmas are synced *before* each depth's sweep so a
    // replica whose primary was just discovered propagates in the same
    // wave it would have as part of the original node.
    NodeId depth = 0;
    // The forward functor's discoveries; reused across waves, so its
    // capacity grows once to the widest wave.
    ArenaVector<NodeId> next_frontier;
    while (true) {
      sync_replicas_forward(depth, &by_level[depth]);
      next_frontier.clear();
      auto forward = [&](NodeId u, NodeId v, Weight) {
        if (level[u] != depth) return false;
        if (level[v] == kInvalidNode) {
          level[v] = depth + 1;
          next_frontier.push_back(v);
        }
        if (level[v] == depth + 1) {
          sigma[v] += sigma[u];
          return true;
        }
        return false;
      };
      if (drv.data_driven()) {
        std::vector<NodeId> frontier = by_level[depth];
        drv.sweep(frontier, forward);
      } else {
        drv.sweep_all_gated([&](NodeId u) { return level[u] == depth; },
                            forward);
      }
      if (next_frontier.empty()) break;
      ++depth;
      // graffix-lint: allow(R6) copies the finished wave into the per-source history (one exact-size allocation per wave)
      by_level.emplace_back(next_frontier.begin(), next_frontier.end());
    }

    // Backward pass: dependency accumulation level by level (Eq. 1).
    for (NodeId d = depth + 1; d-- > 0;) {
      auto backward = [&](NodeId u, NodeId v, Weight) {
        if (level[u] != d) return false;
        if (level[v] == d + 1 && sigma[v] > 0.0 && sigma[u] > 0.0) {
          delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v]);
          return true;
        }
        return false;
      };
      if (drv.data_driven()) {
        std::vector<NodeId> frontier = by_level[d];
        drv.sweep(frontier, backward);
      } else {
        drv.sweep_all_gated([&](NodeId u) { return level[u] == d; },
                            backward);
      }
    }
    // Copies of a node accumulate dependency through disjoint out-edge
    // subsets; the logical delta is their sum, credited to the primary
    // (the projection back to node ids reads primaries only).
    if (replicas != nullptr && !replicas->empty()) {
      std::uint64_t touched = 0;
      for (const auto& group : replicas->groups) {
        touched += group.size();
        for (std::size_t i = 1; i < group.size(); ++i) {
          delta[group[0]] += delta[group[i]];
          delta[group[i]] = 0.0;
        }
      }
      drv.charge_stream(touched, 2.0);
    }
    res.contrib.assign(slots, 0.0);
    for (NodeId s = 0; s < slots; ++s) {
      if (s != source && level[s] != kInvalidNode) res.contrib[s] = delta[s];
    }
    drv.charge_stream(slots);  // bc accumulation
    res.stats = drv.stats();
    res.primary_items = drv.primary_items();
    res.primary_launches = drv.primary_launches();
  };

  // One fork per source even on one thread: a single code path cannot
  // drift between thread counts. Nested callers (the bench matrix) see
  // one effective worker and run the source loop inline, in source
  // order. The fan-out is sized by the concurrency actually available:
  // oversubscribing a smaller machine would only slow the sources down.
  std::vector<SourceResult> results(sources.size());
  parallel_for_dynamic(
      std::size_t{0}, results.size(),
      [&](std::size_t k) { run_source(sources[k], results[k]); },
      /*grain=*/1);

  // Ordered reduction: contributions are added in source order (fixed FP
  // accumulation order), counters in source order (integer sums).
  for (std::size_t k = 0; k < results.size(); ++k) {
    ++out.iterations;
    const SourceResult& res = results[k];
    driver.absorb(res.stats, res.primary_items, res.primary_launches);
    for (NodeId s = 0; s < slots; ++s) bc[s] += res.contrib[s];
    if (config.collect_trace) {
      out.trace.push_back({out.iterations, driver.stats()});
    }
  }

  out.stats = driver.stats();
  out.sim_seconds = driver.seconds();
  return out;
}

// ---------------------------------------------------------------------------
// SCC (forward-max coloring with backward confirmation)
// ---------------------------------------------------------------------------

RunOutput run_scc(const Csr& graph, const RunConfig& config) {
  const NodeId slots = graph.num_slots();
  Driver forward_driver(graph, config, /*uses_weights=*/false);
  const Csr reverse = graph.transpose();
  Driver backward_driver(reverse, config, /*uses_weights=*/false);
  RunOutput out;

  std::vector<std::uint8_t> live(slots, 0);
  NodeId live_count = 0;
  for (NodeId s = 0; s < slots; ++s) {
    if (!graph.is_hole(s)) {
      live[s] = 1;
      ++live_count;
    }
  }

  std::vector<NodeId> color(slots, kInvalidNode);
  std::vector<std::uint8_t> in_scc(slots, 0);
  NodeId scc_count = 0;

  while (live_count > 0 && out.iterations < config.max_iterations) {
    ++out.iterations;
    // 1. Reset colors for live nodes.
    std::vector<NodeId> frontier;
    for (NodeId s = 0; s < slots; ++s) {
      if (live[s]) {
        color[s] = s;
        frontier.push_back(s);
      }
    }
    forward_driver.charge_stream(live_count);

    // 2. Forward max-color propagation to fixpoint (Jacobi semantics:
    // colors travel one hop per launch).
    AtomicBitset changed_mask(slots);
    std::vector<NodeId> changed;
    std::vector<NodeId> next_color = color;
    auto propagate = [&](NodeId u, NodeId v, Weight) {
      if (!live[u] || !live[v]) return false;
      if (color[u] > next_color[v]) {
        next_color[v] = color[u];
        if (changed_mask.set(v)) changed.push_back(v);
        return true;
      }
      return false;
    };
    // Color propagation is monotone (colors only grow, via sweep and via
    // the max-merge confluence), so this terminates in <= slots rounds;
    // the cap is a belt against future non-monotone edits.
    for (NodeId guard = 0; !frontier.empty() && guard <= slots; ++guard) {
      changed.clear();
      changed_mask.clear();
      if (forward_driver.data_driven()) {
        forward_driver.sweep(frontier, propagate);
      } else {
        forward_driver.sweep_all_gated(
            [&](NodeId u) { return live[u] != 0; }, propagate);
      }
      forward_driver.confluence_labels(next_color, &changed, /*take_max=*/true);
      color = next_color;
      frontier = changed;
    }

    // 3. Backward confirmation from every color root, restricted to the
    //    root's color class.
    std::fill(in_scc.begin(), in_scc.end(), 0);
    std::vector<NodeId> back_frontier;
    for (NodeId s = 0; s < slots; ++s) {
      if (live[s] && color[s] == s) {
        in_scc[s] = 1;
        back_frontier.push_back(s);
      }
    }
    backward_driver.charge_stream(live_count);

    std::vector<std::uint8_t> next_in_scc = in_scc;
    auto confirm = [&](NodeId u, NodeId v, Weight) {
      // Edge u->v in the reverse graph = edge v->u in the original.
      if (!live[u] || !live[v]) return false;
      if (in_scc[u] && !next_in_scc[v] && color[v] == color[u]) {
        next_in_scc[v] = 1;
        if (changed_mask.set(v)) changed.push_back(v);
        return true;
      }
      return false;
    };
    // A replica is the same logical node as its primary: once either
    // copy is confirmed, all live same-color copies are — this lets the
    // backward reach continue through the out-edges that replication
    // moved onto the copies (otherwise sparse graphs shatter).
    auto sync_in_scc = [&] {
      if (config.replicas == nullptr || config.replicas->empty()) return;
      std::uint64_t touched = 0;
      for (const auto& group : config.replicas->groups) {
        touched += group.size();
        bool confirmed = false;
        for (NodeId s : group) {
          if (live[s] && next_in_scc[s]) confirmed = true;
        }
        if (!confirmed) continue;
        for (NodeId s : group) {
          if (live[s] && !next_in_scc[s]) {
            next_in_scc[s] = 1;
            if (changed_mask.set(s)) changed.push_back(s);
          }
        }
      }
      backward_driver.charge_stream(touched, 2.0);
    };
    for (NodeId guard = 0; !back_frontier.empty() && guard <= slots; ++guard) {
      changed.clear();
      changed_mask.clear();
      if (backward_driver.data_driven()) {
        backward_driver.sweep(back_frontier, confirm);
      } else {
        backward_driver.sweep_all_gated(
            [&](NodeId u) { return live[u] && in_scc[u]; }, confirm);
      }
      sync_in_scc();
      in_scc = next_in_scc;
      back_frontier = changed;
    }

    // 4. Retire confirmed SCC members. Their colors become invalid so the
    // confluence never merges stale colors of dead replicas into live
    // group members (that would starve later rounds of roots).
    //
    // Components are counted over *logical* nodes: a replica slot is the
    // same node as its primary (§2.4), so replica-only components do not
    // increase the count — only classes containing at least one primary
    // do.
    std::unordered_set<NodeId> roots_this_round;
    const ReplicaMap* replicas = config.replicas;
    auto is_primary = [&](NodeId s) {
      if (replicas == nullptr || replicas->group_of_slot.empty()) return true;
      const NodeId g = replicas->group_of_slot[s];
      return g == kInvalidNode || replicas->groups[g][0] == s;
    };
    for (NodeId s = 0; s < slots; ++s) {
      if (live[s] && in_scc[s]) {
        if (is_primary(s)) roots_this_round.insert(color[s]);
        live[s] = 0;
        color[s] = kInvalidNode;
        --live_count;
      }
    }
    scc_count += static_cast<NodeId>(roots_this_round.size());
    forward_driver.charge_stream(slots);
    if (config.collect_trace) {
      TracePoint point{out.iterations, forward_driver.stats()};
      point.stats += backward_driver.stats();
      out.trace.push_back(std::move(point));
    }
  }

  out.scalar = static_cast<double>(scc_count);
  out.stats = forward_driver.stats();
  out.stats += backward_driver.stats();
  // Combine timings: each driver models its own launches.
  out.sim_seconds = forward_driver.seconds() + backward_driver.seconds();
  return out;
}

// ---------------------------------------------------------------------------
// MST (Borůvka)
// ---------------------------------------------------------------------------

RunOutput run_mst(const Csr& graph, const RunConfig& config) {
  const NodeId slots = graph.num_slots();
  Driver driver(graph, config, /*uses_weights=*/true);
  RunOutput out;

  std::vector<NodeId> comp(slots);
  std::iota(comp.begin(), comp.end(), NodeId{0});
  driver.charge_stream(slots);

  struct Best {
    Weight w = kInfWeight;
    NodeId u = kInvalidNode;
    NodeId v = kInvalidNode;
  };
  std::vector<Best> best(slots);

  auto better = [](Weight w, NodeId u, NodeId v, const Best& cur) {
    if (w != cur.w) return w < cur.w;
    if (u != cur.u) return u < cur.u;
    return v < cur.v;
  };

  for (std::uint32_t round = 0; round < 64; ++round) {
    ++out.iterations;
    std::fill(best.begin(), best.end(), Best{});
    driver.charge_stream(slots);

    driver.sweep_all([&](NodeId u, NodeId v, Weight w) {
      if (u == v) return false;
      const NodeId cu = comp[u];
      const NodeId cv = comp[v];
      if (cu == cv) return false;
      bool committed = false;
      if (better(w, u, v, best[cu])) {
        best[cu] = {w, u, v};
        committed = true;
      }
      if (better(w, u, v, best[cv])) {
        best[cv] = {w, u, v};
        committed = true;
      }
      return committed;
    });
    // Hook + compress on the host side of the device loop (charged as
    // streaming kernels, as LonestarGPU's pointer-jumping kernels are).
    std::vector<NodeId> parent(slots);
    std::iota(parent.begin(), parent.end(), NodeId{0});
    for (NodeId s = 0; s < slots; ++s) parent[s] = comp[s];
    auto find = [&](NodeId x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    bool merged = false;
    for (NodeId c = 0; c < slots; ++c) {
      if (best[c].u == kInvalidNode) continue;
      NodeId a = find(best[c].u);
      NodeId b = find(best[c].v);
      if (a == b) continue;
      if (a < b) std::swap(a, b);
      parent[a] = b;
      out.scalar += static_cast<double>(best[c].w);
      merged = true;
    }
    driver.charge_stream(slots, 2.0);
    if (!merged) {
      if (config.collect_trace) {
        out.trace.push_back({out.iterations, driver.stats()});
      }
      break;
    }
    std::vector<NodeId> changed;
    for (NodeId s = 0; s < slots; ++s) comp[s] = find(s);
    driver.confluence_labels(comp, &changed, /*take_max=*/false);
    driver.charge_stream(slots, 2.0);
    if (config.collect_trace) out.trace.push_back({out.iterations, driver.stats()});
  }

  out.stats = driver.stats();
  out.sim_seconds = driver.seconds();
  return out;
}

}  // namespace

RunOutput run_algorithm(Algorithm alg, const Csr& graph,
                        const RunConfig& config) {
  switch (alg) {
    case Algorithm::SSSP:
      return run_sssp(graph, config);
    case Algorithm::MST:
      return run_mst(graph, config);
    case Algorithm::SCC:
      return run_scc(graph, config);
    case Algorithm::PR:
      return run_pagerank(graph, config);
    case Algorithm::BC:
      return run_bc(graph, config);
  }
  GRAFFIX_CHECK(false, "unknown algorithm");
  return {};
}

const char* validate_run_config(Algorithm alg, const Csr& graph,
                                const RunConfig& config) {
  const NodeId slots = graph.num_slots();
  if (!config.warp_order.empty() && config.warp_order.size() != slots) {
    return "warp_order size does not match graph slots";
  }
  if (config.max_iterations == 0) return "max_iterations must be >= 1";
  switch (alg) {
    case Algorithm::SSSP:
      if (config.sssp_source >= slots) return "sssp source out of range";
      if (graph.is_hole(config.sssp_source)) return "sssp source is a hole slot";
      break;
    case Algorithm::BC:
      for (const NodeId s : config.bc_sources) {
        if (s >= slots) return "bc source out of range";
        if (graph.is_hole(s)) return "bc source is a hole slot";
      }
      if (config.bc_sources.empty() && config.bc_sample_count == 0) {
        return "bc_sample_count must be >= 1 when no sources are given";
      }
      break;
    case Algorithm::PR:
      if (!(config.pr_damping > 0.0 && config.pr_damping < 1.0)) {
        return "pr_damping must lie in (0, 1)";
      }
      if (config.pr_max_iterations == 0) return "pr_max_iterations must be >= 1";
      break;
    case Algorithm::MST:
    case Algorithm::SCC:
      break;
  }
  return nullptr;
}

}  // namespace graffix::core
