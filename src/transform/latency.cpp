#include "transform/latency.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <utility>

#include "graph/rebuild.hpp"
#include "transform/validate.hpp"
#include "util/arena.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace graffix::transform {

namespace {

using Arc = ExtraArc;
using Und = std::vector<std::vector<Arc>>;

/// A node's clustering coefficient is defined over its first kDegreeCap
/// sorted neighbors (its capped list), which bounds the O(d^2) sibling
/// scans on hubs.
constexpr NodeId kDegreeCap = 64;

/// Rows longer than this join the bit-matrix core (PairIndex), at most
/// kCoreSize of them (an 8 MiB matrix).
constexpr NodeId kCoreDegree = 256;
constexpr NodeId kCoreSize = 8192;

/// Link counts run over this many fixed node blocks, each with its own
/// mark table, so no count depends on the worker count.
constexpr std::size_t kCountBlocks = 64;

/// Sorted undirected adjacency with weights (min over directions). Row u
/// merges u's out-neighbors with its in-neighbors (from the transpose),
/// so each row is built independently — parallel and deterministic.
Und undirected_adjacency(const Csr& graph) {
  const NodeId n = graph.num_slots();
  Und und(n);
  const bool weighted = graph.has_weights();
  const Csr rev = graph.transpose();
  parallel_for_dynamic(NodeId{0}, n, [&](NodeId u) {
    auto& list = und[u];
    const auto out = graph.neighbors(u);
    const auto in = rev.neighbors(u);
    list.reserve(out.size() + in.size());
    const auto out_w =
        weighted ? graph.edge_weights(u) : std::span<const Weight>{};
    const auto in_w =
        weighted ? rev.edge_weights(u) : std::span<const Weight>{};
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i] == u) continue;
      list.push_back({out[i], weighted ? out_w[i] : Weight{1}});
    }
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (in[i] == u) continue;
      list.push_back({in[i], weighted ? in_w[i] : Weight{1}});
    }
    // graffix-lint: allow(R4) comparator is a total order on Arc values ((dst, w) lexicographic); ties are value-identical arcs
    std::sort(list.begin(), list.end(), [](const Arc& a, const Arc& b) {
      if (a.dst != b.dst) return a.dst < b.dst;
      return a.w < b.w;
    });
    list.erase(std::unique(list.begin(), list.end(),
                           [](const Arc& a, const Arc& b) {
                             return a.dst == b.dst;
                           }),
               list.end());
  });
  return und;
}

bool und_has_edge(const Und& und, NodeId a, NodeId b) {
  const auto& list = und[a];
  auto it = std::lower_bound(
      list.begin(), list.end(), b,
      [](const Arc& arc, NodeId x) { return arc.dst < x; });
  return it != list.end() && it->dst == b;
}

Weight und_weight(const Und& und, NodeId a, NodeId b) {
  const auto& list = und[a];
  auto it = std::lower_bound(
      list.begin(), list.end(), b,
      [](const Arc& arc, NodeId x) { return arc.dst < x; });
  return (it != list.end() && it->dst == b) ? it->w : Weight{1};
}

void und_insert(Und& und, NodeId a, NodeId b, Weight w) {
  auto insert_one = [&](NodeId x, NodeId y) {
    auto& list = und[x];
    auto it = std::lower_bound(
        list.begin(), list.end(), y,
        [](const Arc& arc, NodeId z) { return arc.dst < z; });
    list.insert(it, {y, w});
  };
  insert_one(a, b);
  insert_one(b, a);
}

/// Position of the first arc at or after `from` whose target is not
/// below x. Gallops (1, 2, 4, ... ahead) before the binary search, so the
/// search pays for the distance from `from`, not for the row length.
std::size_t gallop(std::span<const Arc> row, std::size_t from, NodeId x) {
  std::size_t lo = from, hi = from, step = 1;
  while (hi < row.size() && row[hi].dst < x) {
    lo = hi + 1;
    hi = lo + step;
    step *= 2;
  }
  hi = std::min(hi, row.size());
  return static_cast<std::size_t>(
      std::lower_bound(row.begin() + lo, row.begin() + hi, x,
                       [](const Arc& arc, NodeId y) { return arc.dst < y; }) -
      row.begin());
}

/// Epoch-stamped membership marks over node ids: opening a new set costs
/// one increment, so one table serves every node of a block. Each table
/// belongs to the one task that made it.
struct Marks {
  explicit Marks(NodeId n) : stamp(n, 0u) {}
  ArenaBuffer<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
};

void open_set(Marks& marks) {
  if (++marks.epoch == 0) {  // wrapped: stale stamps could match again
    std::fill(marks.stamp.begin(), marks.stamp.end(), 0u);
    marks.epoch = 1;
  }
}
void mark(Marks& marks, NodeId v) { marks.stamp[v] = marks.epoch; }
void unmark(Marks& marks, NodeId v) { marks.stamp[v] = 0; }
bool marked(const Marks& marks, NodeId v) {
  return marks.stamp[v] == marks.epoch;
}

/// Calls on_link(v) for every v in `row` that is one of the ascending
/// `targets`, is marked and passes `keep`; every marked id between the
/// first and the last target must be a target. Only the row segment
/// between them is walked, against the marks: a sequential walk beat
/// galloping to each target even on segments 64 times the target count.
template <typename Keep, typename OnLink>
void for_each_linked(std::span<const Arc> row, std::span<const NodeId> targets,
                     const Marks& marks, Keep&& keep, OnLink&& on_link) {
  if (targets.empty()) return;
  const std::size_t lo = gallop(row, 0, targets.front());
  const std::size_t hi = gallop(row, lo, targets.back() + 1);
  for (std::size_t p = lo; p < hi; ++p) {
    const NodeId v = row[p].dst;
    if (marked(marks, v) && keep(v)) on_link(v);
  }
}

/// How pairs are tested. Every node has a rank in ascending (undirected
/// degree, id) order; a pair is looked up from its lower-ranked endpoint,
/// whose row is the shorter. The nodes ranked from `core_begin` on, the
/// rows longer than kCoreDegree, keep their links among themselves as a
/// bit matrix, so a pair of long rows costs one bit instead of a search.
struct PairIndex {
  std::vector<NodeId> rank;
  NodeId core_begin = 0;
  std::size_t words = 0;  // 64-bit words per matrix row
  std::vector<std::uint64_t> core;
};

bool in_core(const PairIndex& index, NodeId v) {
  return index.rank[v] >= index.core_begin;
}

/// Word and bit of the pair (a, b) in the core matrix.
std::pair<std::size_t, std::uint64_t> core_bit(const PairIndex& index,
                                               NodeId a, NodeId b) {
  const std::size_t row = index.rank[a] - index.core_begin;
  const std::size_t col = index.rank[b] - index.core_begin;
  return {row * index.words + col / 64, std::uint64_t{1} << (col % 64)};
}

bool core_linked(const PairIndex& index, NodeId a, NodeId b) {
  const auto [word, bit] = core_bit(index, a, b);
  return (index.core[word] & bit) != 0;
}

void core_link(PairIndex& index, NodeId a, NodeId b) {
  for (const auto& [word, bit] :
       {core_bit(index, a, b), core_bit(index, b, a)}) {
    index.core[word] |= bit;
  }
}

PairIndex pair_index(const Und& und) {
  const auto n = static_cast<NodeId>(und.size());
  PairIndex index;
  // Ranks by a counting sort over the degrees.
  std::size_t max_degree = 0;
  for (const auto& row : und) max_degree = std::max(max_degree, row.size());
  std::vector<NodeId> next(max_degree + 2, 0);
  for (const auto& row : und) ++next[row.size() + 1];
  for (std::size_t d = 0; d <= max_degree; ++d) next[d + 1] += next[d];
  index.rank.resize(n);
  for (NodeId v = 0; v < n; ++v) index.rank[v] = next[und[v].size()]++;

  NodeId long_rows = 0;
  for (const auto& row : und) long_rows += row.size() > kCoreDegree ? 1 : 0;
  const NodeId size = std::min(long_rows, kCoreSize);
  index.core_begin = n - size;
  index.words = (static_cast<std::size_t>(size) + 63) / 64;
  index.core.assign(static_cast<std::size_t>(size) * index.words, 0);
  std::vector<NodeId> members(size);
  for (NodeId v = 0; v < n; ++v) {
    if (in_core(index, v)) members[index.rank[v] - index.core_begin] = v;
  }
  // Each task sets bits in its own matrix row only.
  parallel_for_dynamic(NodeId{0}, size, [&](NodeId i) {
    for (const Arc& a : und[members[i]]) {
      if (!in_core(index, a.dst)) continue;
      const auto cell = core_bit(index, members[i], a.dst);
      index.core[cell.first] |= cell.second;
    }
  }, 16);
  return index;
}

/// Calls on_pair(a, b) once for every adjacent pair of the marked,
/// ascending `ids`: from the row of the lower-ranked endpoint, or through
/// the bit matrix when both are in the core. `core_ids` is scratch with
/// room for every id.
template <typename OnPair>
void for_each_pair_link(const Und& und, std::span<const NodeId> ids,
                        const Marks& marks, const PairIndex& index,
                        std::span<NodeId> core_ids, OnPair&& on_pair) {
  std::size_t n_core = 0;
  for (const NodeId a : ids) {
    const NodeId rank_a = index.rank[a];
    if (rank_a >= index.core_begin) {
      core_ids[n_core++] = a;
      continue;
    }
    for_each_linked(
        und[a], ids, marks, [&](NodeId b) { return index.rank[b] > rank_a; },
        [&](NodeId b) { on_pair(a, b); });
  }
  for (std::size_t i = 0; i < n_core; ++i) {
    for (std::size_t j = i + 1; j < n_core; ++j) {
      if (core_linked(index, core_ids[i], core_ids[j])) {
        on_pair(core_ids[i], core_ids[j]);
      }
    }
  }
}

/// How many marked `targets` are neighbors of x.
NodeId count_linked(const Und& und, NodeId x, std::span<const NodeId> targets,
                    const Marks& marks) {
  NodeId found = 0;
  for_each_linked(
      und[x], targets, marks, [](NodeId) { return true; },
      [&](NodeId) { ++found; });
  return found;
}

using CappedIds = std::array<NodeId, kDegreeCap>;

/// The neighbors each node gained by insertion, as ascending flat lists of
/// arcs (only the targets are read), so for_each_linked walks them like
/// rows.
struct Gained {
  std::vector<EdgeId> begin;
  std::vector<Arc> arcs;

  [[nodiscard]] std::span<const Arc> of(NodeId v) const {
    return {arcs.data() + begin[v],
            static_cast<std::size_t>(begin[v + 1] - begin[v])};
  }
};

/// Reads every inserted pair (listed once, under its lower endpoint, in
/// `extra`) from both of its endpoints. A list holds its lower partners,
/// then its upper ones, each part written in ascending order, so it
/// ascends.
Gained gained_neighbors(std::span<const std::vector<Arc>> extra) {
  const std::size_t n = extra.size();
  Gained gained;
  gained.begin.assign(n + 1, 0);
  for (std::size_t a = 0; a < n; ++a) {
    gained.begin[a + 1] += extra[a].size();
    for (const Arc& b : extra[a]) ++gained.begin[b.dst + 1];
  }
  for (std::size_t v = 0; v < n; ++v) gained.begin[v + 1] += gained.begin[v];
  gained.arcs.resize(gained.begin[n]);
  std::vector<EdgeId> cursor(gained.begin.begin(), gained.begin.end() - 1);
  for (std::size_t a = 0; a < n; ++a) {
    for (const Arc& b : extra[a]) {
      gained.arcs[cursor[b.dst]++] = {static_cast<NodeId>(a), b.w};
    }
  }
  // b's lower partners are complete before b is reached, and no later
  // node writes into b's list until then.
  for (std::size_t b = 0; b < n; ++b) {
    const EdgeId lower_end = cursor[b];
    for (EdgeId p = gained.begin[b]; p < lower_end; ++p) {
      const Arc lower = gained.arcs[p];
      gained.arcs[cursor[lower.dst]++] = {static_cast<NodeId>(b), lower.w};
    }
  }
  return gained;
}

/// Adjacent pairs among u's capped neighbors (its first kDegreeCap).
NodeId count_links(const Und& und, NodeId u, const PairIndex& index,
                   Marks& marks) {
  const std::size_t d = std::min<std::size_t>(und[u].size(), kDegreeCap);
  CappedIds ids, core_ids;
  open_set(marks);
  for (std::size_t i = 0; i < d; ++i) {
    ids[i] = und[u][i].dst;
    mark(marks, ids[i]);
  }
  NodeId links = 0;
  for_each_pair_link(und, std::span<const NodeId>(ids.data(), d), marks, index,
                     core_ids, [&](NodeId, NodeId) { ++links; });
  return links;
}

/// Links among u's capped neighbors after the insertions, from `links`,
/// the count over its capped list before them. The inserted pairs inside
/// the old list are added, members the cap evicted take their links with
/// them, and entering members bring theirs; no list is recounted.
NodeId output_links(const Und& und, const Gained& gained_by, NodeId u,
                    NodeId links, Marks& marks) {
  const auto& row = und[u];
  const auto gained = gained_by.of(u);
  const std::size_t d_after = std::min<std::size_t>(row.size(), kDegreeCap);
  const std::size_t d_before =
      std::min<std::size_t>(row.size() - gained.size(), kDegreeCap);
  // The capped list before is the row's first entries that were not
  // gained, the one after its first entries.
  CappedIds before, after, entering;
  std::size_t n_before = 0, n_entering = 0, kept = 0;
  open_set(marks);
  for (const Arc& g : gained) mark(marks, g.dst);
  for (std::size_t p = 0; p < d_after || n_before < d_before; ++p) {
    const NodeId v = row[p].dst;
    if (p < d_after) after[p] = v;
    if (marked(marks, v)) {
      if (p < d_after) entering[n_entering++] = v;
    } else {
      before[n_before++] = v;
      if (p < d_after) ++kept;
    }
  }
  const std::span<const NodeId> before_ids(before.data(), n_before);
  open_set(marks);
  for (NodeId v : before_ids) mark(marks, v);
  for (std::size_t i = 0; i + 1 < n_before; ++i) {
    for_each_linked(
        gained_by.of(before[i]), before_ids.subspan(i + 1), marks,
        [](NodeId) { return true; }, [&](NodeId) { ++links; });
  }
  for (std::size_t i = kept; i < n_before; ++i) {
    unmark(marks, before[i]);
    links -= count_linked(und, before[i], before_ids, marks);
  }
  const std::span<const NodeId> after_ids(after.data(), d_after);
  for (std::size_t i = 0; i < n_entering; ++i) {
    links += count_linked(und, entering[i], after_ids, marks);
    mark(marks, entering[i]);
  }
  return links;
}

/// Local clustering coefficient of a node with d capped neighbors of
/// which `links` pairs are adjacent.
double local_cc(NodeId links, std::size_t d) {
  if (d < 2) return 0.0;
  return 2.0 * static_cast<double>(links) /
         (static_cast<double>(d) * static_cast<double>(d - 1));
}

/// Diameter of the subgraph the rows induce on a cluster of at least
/// three members. Every member after the anchor is one of its neighbors,
/// so the diameter is 1 when those members are pairwise adjacent and 2
/// otherwise. They follow the anchor's row, so they ascend.
NodeId cluster_diameter(const Und& und, std::span<const NodeId> members,
                        const PairIndex& index, std::span<NodeId> scratch,
                        Marks& marks) {
  const auto others = members.subspan(1);
  open_set(marks);
  for (NodeId v : others) mark(marks, v);
  std::size_t links = 0;
  for_each_pair_link(und, others, marks, index, scratch,
                     [&](NodeId, NodeId) { ++links; });
  return links == others.size() * (others.size() - 1) / 2 ? 1 : 2;
}

/// Sets links[u] = count(u, marks) and cc[u] for every node u, over
/// kCountBlocks fixed node blocks that each take a mark table from the
/// arena; each u writes only its own entries.
template <typename Count>
void count_all(const Und& und, std::vector<NodeId>& links,
               std::vector<double>& cc, Count&& count) {
  const auto n = static_cast<NodeId>(und.size());
  const std::size_t blocks = std::min<std::size_t>(n, kCountBlocks);
  const auto block_begin = [&](std::size_t b) {
    return static_cast<NodeId>(static_cast<std::uint64_t>(n) * b / blocks);
  };
  parallel_tasks(blocks, [&](std::size_t b) {
    Marks marks(n);
    for (NodeId u = block_begin(b); u < block_begin(b + 1); ++u) {
      links[u] = count(u, marks);
      cc[u] = local_cc(links[u],
                       std::min<std::size_t>(und[u].size(), kDegreeCap));
    }
  });
}

}  // namespace

LatencyResult latency_transform(const Csr& graph, const LatencyKnobs& knobs) {
  // Hole-aware: hole slots have empty adjacency, so they never become
  // anchors, siblings, or insertion endpoints; the mask is carried
  // through so the transform composes with the coalescing output.
  LatencyResult result;
  const NodeId n = graph.num_slots();
  auto und = undirected_adjacency(graph);
  PairIndex index = pair_index(und);

  // Initial CCs (computed on the undirected view, as in §3) in parallel.
  // The integer link counts are kept for the output CCs.
  std::vector<NodeId> links(n, 0);
  std::vector<double> cc(n, 0.0);
  count_all(und, links, cc, [&](NodeId u, Marks& marks) {
    return count_links(und, u, index, marks);
  });
  const auto mean_cc = [&] {
    double sum = 0.0;
    for (NodeId u = 0; u < n; ++u) sum += cc[u];
    return n == 0 ? 0.0 : sum / n;
  };
  result.mean_cc_before = mean_cc();

  const auto budget = static_cast<std::uint64_t>(
      knobs.edge_budget_fraction * static_cast<double>(graph.num_edges()));

  // New directed arcs to splice into the graph, each under its lower
  // endpoint.
  std::vector<std::vector<Arc>> extra(n);
  std::uint64_t arcs_added = 0;

  // Candidate lists sorted by CC (descending) with deterministic ties.
  std::vector<NodeId> near_nodes, high_nodes;
  for (NodeId u = 0; u < n; ++u) {
    if (und[u].size() < 2 || und[u].size() > kDegreeCap) continue;
    if (cc[u] >= knobs.cc_threshold) {
      high_nodes.push_back(u);
    } else if (cc[u] >= knobs.cc_threshold - knobs.near_delta) {
      near_nodes.push_back(u);
    }
  }
  auto by_cc_desc = [&](NodeId a, NodeId b) {
    if (cc[a] != cc[b]) return cc[a] > cc[b];
    return a < b;
  };
  // graffix-lint: allow(R4) by_cc_desc is a total order: node-id ascending tie-break, node ids unique
  std::sort(near_nodes.begin(), near_nodes.end(), by_cc_desc);
  // graffix-lint: allow(R4) by_cc_desc is a total order: node-id ascending tie-break, node ids unique
  std::sort(high_nodes.begin(), high_nodes.end(), by_cc_desc);

  // --- Greedy insertion phases (scenario 1 + 2) ------------------------
  // One directed arc per insertion: the clustering coefficient is
  // defined on the undirected view (§3), so a single arc raises it just
  // as well, while a reciprocal pair would create a 2-cycle whose rank
  // oscillation measurably slows PageRank-style iterations.
  auto insert_pair = [&](NodeId a, NodeId b, Weight w) {
    if (b < a) std::swap(a, b);
    extra[a].push_back({b, w});
    und_insert(und, a, b, w);
    if (in_core(index, a) && in_core(index, b)) core_link(index, a, b);
    ++arcs_added;
  };

  // Scratch of the serial walks below.
  Marks greedy_marks(n);
  ArenaBuffer<NodeId> sibling_links(n);
  std::vector<NodeId> sibling_ids, pair_scratch;
  std::vector<std::pair<NodeId, NodeId>> conn;  // (links, sibling)

  // Scenario 1: lift each near-threshold node over the cutoff by linking
  // sibling pairs that already share a common neighbor (pass 1, the
  // paper's "preferentially"), falling back to arbitrary non-adjacent
  // sibling pairs (pass 2) while the CC deficit is unmet. Insertions stop
  // once the global count reaches the budget.
  auto scenario1_anchor = [&](NodeId u) {
    const auto d = static_cast<NodeId>(und[u].size());
    const double pairs = static_cast<double>(d) * (d - 1) / 2.0;
    const auto needed = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(
            std::ceil((knobs.cc_threshold - cc[u]) * pairs)),
        knobs.max_edges_per_anchor);
    std::uint64_t added_here = 0;
    // Snapshot the sibling list: inserted edges must not extend it.
    std::vector<NodeId> siblings;
    siblings.reserve(d);
    for (const Arc& a : und[u]) siblings.push_back(a.dst);
    for (int pass = 0; pass < 2 && added_here < needed; ++pass) {
      for (NodeId i = 0; i + 1 < d && added_here < needed; ++i) {
        // a's neighbors, marked once for all of its later siblings.
        const NodeId a = siblings[i];
        open_set(greedy_marks);
        for (const Arc& x : und[a]) mark(greedy_marks, x.dst);
        const auto linked_to_a = [&](const Arc& x) {
          return x.dst != u && marked(greedy_marks, x.dst);
        };
        for (NodeId j = i + 1; j < d && added_here < needed; ++j) {
          if (arcs_added >= budget) return;
          const NodeId b = siblings[j];
          if (marked(greedy_marks, b)) continue;
          if (pass == 0 && std::ranges::none_of(und[b], linked_to_a)) continue;
          insert_pair(a, b, und_weight(und, u, a) + und_weight(und, u, b));
          mark(greedy_marks, b);
          ++added_here;
        }
      }
    }
  };

  // Scenario 2: densify the cluster around an already-high-CC node by
  // linking its least-connected sibling pair (one insertion per anchor
  // keeps the approximation small; the budget is the hard stop).
  auto scenario2_anchor = [&](NodeId u) {
    // Connectivity of each sibling to the other siblings: each adjacent
    // pair is found once and credited to both.
    sibling_ids.clear();
    open_set(greedy_marks);
    for (const Arc& s : und[u]) {
      sibling_ids.push_back(s.dst);
      mark(greedy_marks, s.dst);
      sibling_links[s.dst] = 0;
    }
    pair_scratch.resize(sibling_ids.size());
    for_each_pair_link(und, sibling_ids, greedy_marks, index, pair_scratch,
                       [&](NodeId a, NodeId b) {
                         ++sibling_links[a];
                         ++sibling_links[b];
                       });
    conn.clear();
    for (NodeId s : sibling_ids) conn.emplace_back(sibling_links[s], s);
    // graffix-lint: allow(R4) default less over (links, sibling-id) pairs is a total order: sibling ids are unique
    std::sort(conn.begin(), conn.end());
    for (std::size_t i = 0; i < conn.size(); ++i) {
      for (std::size_t j = i + 1; j < conn.size(); ++j) {
        const NodeId a = conn[i].second, b = conn[j].second;
        if (und_has_edge(und, a, b)) continue;
        insert_pair(a, b, und_weight(und, u, a) + und_weight(und, u, b));
        return;
      }
    }
  };

  {
    WallTimer greedy_timer;
    for (NodeId u : near_nodes) {
      if (arcs_added >= budget) break;
      scenario1_anchor(u);
    }
    for (NodeId u : high_nodes) {
      if (arcs_added >= budget) break;
      scenario2_anchor(u);
    }
    result.greedy_seconds = greedy_timer.seconds();
  }
  result.edges_added = arcs_added;

  // Rebuild the Csr with the extra arcs appended (shared parallel path).
  result.graph = rebuild_with_extras(graph, extra);

  // Output CCs, by increments from the input link counts (output_links).
  // Link counts are integers, so every CC is the same double a full
  // recount gives.
  const Gained gained = gained_neighbors(extra);
  count_all(und, links, cc, [&](NodeId u, Marks& marks) {
    return output_links(und, gained, u, links[u], marks);
  });
  result.mean_cc_after = mean_cc();

  // Cluster selection on the boosted graph: among nodes clearing the CC
  // threshold, anchor the highest-degree ones first — they pull the most
  // gather traffic into shared memory (reuse is what the technique buys).
  std::vector<NodeId> anchors;
  for (NodeId u = 0; u < n; ++u) {
    if (cc[u] >= knobs.cc_threshold && und[u].size() >= 2) anchors.push_back(u);
  }
  // graffix-lint: allow(R4) comparator is a total order: (degree desc, cc desc, node-id asc), node ids unique
  std::sort(anchors.begin(), anchors.end(), [&](NodeId a, NodeId b) {
    if (und[a].size() != und[b].size()) return und[a].size() > und[b].size();
    return by_cc_desc(a, b);
  });

  ClusterSchedule& schedule = result.schedule;
  schedule.resident.assign(n, kInvalidNode);
  for (NodeId anchor : anchors) {
    if (schedule.clusters.size() >= knobs.max_clusters) break;
    if (schedule.resident[anchor] != kInvalidNode) continue;
    Cluster cluster;
    cluster.members.push_back(anchor);
    for (const Arc& a : und[anchor]) {
      if (cluster.members.size() >= knobs.cluster_cap) break;
      if (schedule.resident[a.dst] == kInvalidNode && a.dst != anchor) {
        cluster.members.push_back(a.dst);
      }
    }
    if (cluster.members.size() < 3) continue;
    const auto id = static_cast<NodeId>(schedule.clusters.size());
    for (NodeId m : cluster.members) schedule.resident[m] = id;
    pair_scratch.resize(cluster.members.size());
    const NodeId diameter =
        cluster_diameter(und, cluster.members, index, pair_scratch,
                         greedy_marks);
    cluster.inner_iterations = static_cast<std::uint32_t>(std::max(
        1.0, knobs.t_diameter_factor * static_cast<double>(diameter)));
    schedule.clusters.push_back(std::move(cluster));
  }

  const double before = static_cast<double>(graph.memory_bytes());
  const double after = static_cast<double>(result.graph.memory_bytes());
  result.extra_space_fraction = before == 0.0 ? 0.0 : (after - before) / before;
  check_transform_phase("latency", result.graph);
  return result;
}

}  // namespace graffix::transform
