#include "transform/latency.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "graph/properties.hpp"
#include "graph/rebuild.hpp"
#include "transform/validate.hpp"
#include "util/parallel.hpp"
#include "util/macros.hpp"
#include "util/timer.hpp"

namespace graffix::transform {

namespace {

using Arc = ExtraArc;

/// Sorted undirected adjacency with weights (min over directions). Row u
/// merges u's out-neighbors with its in-neighbors (from the transpose),
/// so each row is built independently — parallel and deterministic.
std::vector<std::vector<Arc>> undirected_adjacency(const Csr& graph) {
  const NodeId n = graph.num_slots();
  std::vector<std::vector<Arc>> und(n);
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

bool und_has_edge(const std::vector<std::vector<Arc>>& und, NodeId a,
                  NodeId b) {
  const auto& list = und[a];
  auto it = std::lower_bound(
      list.begin(), list.end(), b,
      [](const Arc& arc, NodeId x) { return arc.dst < x; });
  return it != list.end() && it->dst == b;
}

Weight und_weight(const std::vector<std::vector<Arc>>& und, NodeId a,
                  NodeId b) {
  const auto& list = und[a];
  auto it = std::lower_bound(
      list.begin(), list.end(), b,
      [](const Arc& arc, NodeId x) { return arc.dst < x; });
  return (it != list.end() && it->dst == b) ? it->w : Weight{1};
}

void und_insert(std::vector<std::vector<Arc>>& und, NodeId a, NodeId b,
                Weight w) {
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

/// Common neighbor other than the anchor `exclude` (siblings of an anchor
/// trivially share the anchor itself).
bool have_common_neighbor(const std::vector<std::vector<Arc>>& und, NodeId a,
                          NodeId b, NodeId exclude) {
  const auto& la = und[a];
  const auto& lb = und[b];
  std::size_t i = 0, j = 0;
  while (i < la.size() && j < lb.size()) {
    if (la[i].dst == lb[j].dst) {
      if (la[i].dst != exclude) return true;
      ++i;
      ++j;
    } else if (la[i].dst < lb[j].dst) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// Position of the first arc at or after `from` whose target is not
/// below x. Gallops (1, 2, 4, ... ahead) before the binary search, so a
/// walk over ascending targets pays for the gaps, not the row length.
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

/// How many of the ascending `targets` appear in `row`: one galloping
/// walk over the row.
NodeId count_in_row(std::span<const Arc> row, std::span<const Arc> targets) {
  NodeId found = 0;
  std::size_t pos = 0;
  for (const Arc& t : targets) {
    pos = gallop(row, pos, t.dst);
    if (pos == row.size()) break;
    if (row[pos].dst == t.dst) ++found;
  }
  return found;
}

/// A node's first `cap` sorted neighbors: the neighbor list its local
/// clustering coefficient is defined over.
std::span<const Arc> capped(const std::vector<Arc>& row, NodeId cap) {
  return {row.data(), std::min<std::size_t>(row.size(), cap)};
}

/// Adjacent pairs among the capped neighbors: each neighbor's row is
/// walked once for its later siblings.
NodeId count_links(const std::vector<std::vector<Arc>>& und,
                   std::span<const Arc> nbrs) {
  NodeId links = 0;
  for (std::size_t i = 0; i + 1 < nbrs.size(); ++i) {
    links += count_in_row(und[nbrs[i].dst], nbrs.subspan(i + 1));
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

}  // namespace

LatencyResult latency_transform(const Csr& graph, const LatencyKnobs& knobs) {
  // Hole-aware: hole slots have empty adjacency, so they never become
  // anchors, siblings, or insertion endpoints; the mask is carried
  // through so the transform composes with the coalescing output.
  constexpr NodeId kDegreeCap = 64;  // bound O(d^2) sibling scans on hubs

  LatencyResult result;
  const NodeId n = graph.num_slots();
  auto und = undirected_adjacency(graph);

  // Initial CCs (computed on the undirected view, as in §3) in parallel;
  // each u writes only links[u] and cc[u], so the result is
  // deterministic. The integer link counts are kept for the output CCs.
  std::vector<NodeId> links(n, 0);
  std::vector<double> cc(n, 0.0);
  parallel_for_dynamic(NodeId{0}, n, [&](NodeId u) {
    const auto nbrs = capped(und[u], kDegreeCap);
    links[u] = count_links(und, nbrs);
    cc[u] = local_cc(links[u], nbrs.size());
  });
  const auto mean_cc = [&] {
    double sum = 0.0;
    for (NodeId u = 0; u < n; ++u) sum += cc[u];
    return n == 0 ? 0.0 : sum / n;
  };
  result.mean_cc_before = mean_cc();

  const auto budget = static_cast<std::uint64_t>(
      knobs.edge_budget_fraction * static_cast<double>(graph.num_edges()));

  // New directed arcs to splice into the graph, and which nodes gained one.
  std::vector<std::vector<Arc>> extra(n);
  std::vector<std::uint8_t> endpoint(n, 0);
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
    endpoint[a] = endpoint[b] = 1;
    ++arcs_added;
  };

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
      for (NodeId i = 0; i < d && added_here < needed; ++i) {
        for (NodeId j = i + 1; j < d && added_here < needed; ++j) {
          if (arcs_added >= budget) return;
          const NodeId a = siblings[i], b = siblings[j];
          if (und_has_edge(und, a, b)) continue;
          if (pass == 0 && !have_common_neighbor(und, a, b, u)) continue;
          insert_pair(a, b, und_weight(und, u, a) + und_weight(und, u, b));
          ++added_here;
        }
      }
    }
  };

  // Scenario 2: densify the cluster around an already-high-CC node by
  // linking its least-connected sibling pair (one insertion per anchor
  // keeps the approximation small; the budget is the hard stop).
  auto scenario2_anchor = [&](NodeId u) {
    // Connectivity of each sibling to the other siblings.
    const std::span<const Arc> siblings(und[u]);
    std::vector<std::pair<NodeId, NodeId>> conn;  // (links, sibling)
    conn.reserve(siblings.size());
    for (const Arc& s : siblings) {
      conn.emplace_back(count_in_row(und[s.dst], siblings), s.dst);
    }
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

  // Output CCs. A node that gained no arc keeps its capped neighbor list,
  // so it gains exactly one link per inserted pair inside that list;
  // endpoints are recounted. Link counts are integers, so every CC is
  // the same double a full recount gives.
  parallel_for_dynamic(NodeId{0}, n, [&](NodeId u) {
    const auto nbrs = capped(und[u], kDegreeCap);
    if (endpoint[u]) {
      links[u] = count_links(und, nbrs);
    } else {
      // Each inserted pair is listed once, under its lower endpoint.
      for (const Arc& a : nbrs) {
        for (const Arc& b : extra[a.dst]) {
          if (std::ranges::binary_search(nbrs, b.dst, {}, &Arc::dst)) {
            ++links[u];
          }
        }
      }
    }
    cc[u] = local_cc(links[u], nbrs.size());
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
    const NodeId diameter =
        induced_subgraph_diameter(result.graph, cluster.members);
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
