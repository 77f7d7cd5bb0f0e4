#include "graph/streaming_builder.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/macros.hpp"
#include "util/parallel.hpp"
#include "util/prefix_sum.hpp"

namespace graffix {

namespace {
// Row-sort scratch element; a plain aggregate (unlike std::pair) so it
// qualifies for ArenaBuffer's trivially-copyable storage.
struct Arc {
  NodeId dst;
  Weight weight;
};
}  // namespace

StreamingCsrBuilder::StreamingCsrBuilder(NodeId num_nodes,
                                         const StreamingCsrOptions& options)
    : num_nodes_(num_nodes),
      options_(options),
      offsets_(static_cast<std::size_t>(num_nodes) + 1, 0) {}

void StreamingCsrBuilder::count(std::span<const EdgeTriple> chunk) {
  GRAFFIX_CHECK(stage_ == Stage::Counting,
                "count() after finish_counts(); replay order violated");
  for (const EdgeTriple& e : chunk) {
    GRAFFIX_DCHECK(e.src < num_nodes_ && e.dst < num_nodes_,
                   "edge (%u,%u) out of range (n=%u)", e.src, e.dst,
                   num_nodes_);
    if (options_.drop_self_loops && e.src == e.dst) continue;
    ++offsets_[e.src];
    ++counted_;
  }
}

void StreamingCsrBuilder::finish_counts() {
  GRAFFIX_CHECK(stage_ == Stage::Counting, "finish_counts() called twice");
  stage_ = Stage::Scattering;
  exclusive_scan_inplace(std::span<EdgeId>(offsets_));
  GRAFFIX_CHECK(offsets_.back() == counted_, "scan total %llu != counted %llu",
                static_cast<unsigned long long>(offsets_.back()),
                static_cast<unsigned long long>(counted_));
  targets_.resize(counted_);
  if (options_.weighted) weights_.resize(counted_);
  cursor_ = ArenaBuffer<EdgeId>(num_nodes_);
  parallel_for(NodeId{0}, num_nodes_,
               [&](NodeId u) { cursor_[u] = offsets_[u]; });
}

void StreamingCsrBuilder::scatter(std::span<const EdgeTriple> chunk) {
  GRAFFIX_CHECK(stage_ == Stage::Scattering,
                "scatter() before finish_counts() or after finish()");
  // Serial cursor walk: each edge's final slot is a pure function of the
  // stream prefix, so placement is independent of chunk boundaries and
  // thread count (the rows are canonicalized by sorting in finish()
  // anyway; this keeps even the pre-sort arrays deterministic).
  const bool weighted = options_.weighted;
  const bool drop = options_.drop_self_loops;
  for (const EdgeTriple& e : chunk) {
    if (drop && e.src == e.dst) continue;
    GRAFFIX_DCHECK(e.src < num_nodes_, "src %u out of range", e.src);
    const EdgeId pos = cursor_[e.src]++;
    targets_[pos] = e.dst;
    if (weighted) weights_[pos] = e.weight;
    ++scattered_;
  }
}

Csr StreamingCsrBuilder::finish() {
  GRAFFIX_CHECK(stage_ == Stage::Scattering, "finish() before scatter pass");
  stage_ = Stage::Finished;
  GRAFFIX_CHECK(scattered_ == counted_,
                "scatter pass saw %llu edges, count pass saw %llu — the two "
                "emitter invocations produced different streams",
                static_cast<unsigned long long>(scattered_),
                static_cast<unsigned long long>(counted_));
  const NodeId n = num_nodes_;
  for (NodeId u = 0; u < n; ++u) {
    GRAFFIX_CHECK(cursor_[u] == offsets_[u + 1],
                  "row %u under/overfilled: cursor %llu vs end %llu", u,
                  static_cast<unsigned long long>(cursor_[u]),
                  static_cast<unsigned long long>(offsets_[u + 1]));
  }
  cursor_.reset();

  const EdgeId m = offsets_.back();
  const bool weighted = options_.weighted;
  const bool dedup = options_.dedup != GraphBuilder::Dedup::None;
  ArenaBuffer<EdgeId> keep;
  if (dedup) keep = ArenaBuffer<EdgeId>(n, EdgeId{0});

  if (m > 0) {
    // Canonicalize each row to the order the materializing path's global
    // (src, dst, weight) sort induces. Tasks cover contiguous row ranges
    // cut at ~equal edge counts (hub rows dominate the work on skewed
    // graphs); each task reuses one arena scratch buffer across its rows.
    const auto workers = static_cast<std::size_t>(effective_workers());
    const std::size_t n_tasks =
        std::min<std::size_t>(n, std::max<std::size_t>(workers * 8, 1));
    std::vector<NodeId> bounds(n_tasks + 1, 0);
    bounds[n_tasks] = n;
    for (std::size_t t = 1; t < n_tasks; ++t) {
      const EdgeId target = m / n_tasks * t;
      const auto it = std::lower_bound(offsets_.begin(),
                                       offsets_.begin() + n, target);
      bounds[t] = static_cast<NodeId>(it - offsets_.begin());
    }
    parallel_tasks(n_tasks, [&](std::size_t t) {
      const NodeId lo = bounds[t];
      const NodeId hi = bounds[t + 1];
      if (weighted) {
        std::size_t max_len = 0;
        for (NodeId u = lo; u < hi; ++u) {
          max_len = std::max<std::size_t>(max_len,
                                          offsets_[u + 1] - offsets_[u]);
        }
        ArenaBuffer<Arc> row(max_len);
        for (NodeId u = lo; u < hi; ++u) {
          const EdgeId begin = offsets_[u];
          const auto len = static_cast<std::size_t>(offsets_[u + 1] - begin);
          if (len > 1) {
            for (std::size_t i = 0; i < len; ++i) {
              row[i] = {targets_[begin + i], weights_[begin + i]};
            }
            // Ties under (dst, weight) are bitwise-identical pairs, so
            // the unstable sort cannot produce divergent arrays.
            std::sort(row.begin(), row.begin() + len,
                      [](const Arc& a, const Arc& b) {
                        if (a.dst != b.dst) return a.dst < b.dst;
                        return a.weight < b.weight;
                      });
            for (std::size_t i = 0; i < len; ++i) {
              targets_[begin + i] = row[i].dst;
              weights_[begin + i] = row[i].weight;
            }
          }
          if (dedup) {
            EdgeId write = 0;
            for (std::size_t i = 0; i < len; ++i) {
              if (i == 0 || targets_[begin + i] != targets_[begin + write - 1]) {
                targets_[begin + write] = targets_[begin + i];
                weights_[begin + write] = weights_[begin + i];
                ++write;
              }
            }
            keep[u] = write;
          }
        }
      } else {
        for (NodeId u = lo; u < hi; ++u) {
          const EdgeId begin = offsets_[u];
          const auto len = static_cast<std::size_t>(offsets_[u + 1] - begin);
          if (len > 1) {
            std::sort(targets_.begin() + static_cast<std::ptrdiff_t>(begin),
                      targets_.begin() +
                          static_cast<std::ptrdiff_t>(begin + len));
          }
          if (dedup) {
            const auto first =
                targets_.begin() + static_cast<std::ptrdiff_t>(begin);
            keep[u] = static_cast<EdgeId>(
                std::unique(first, first + static_cast<std::ptrdiff_t>(len)) -
                first);
          }
        }
      }
    });
  }

  if (dedup) {
    // Left-pack the kept prefixes. Rows only ever move left (write <=
    // their old start), so a single ascending pass is safe in place.
    EdgeId write = 0;
    for (NodeId u = 0; u < n; ++u) {
      const EdgeId start = offsets_[u];
      const EdgeId k = keep[u];
      if (write != start && k > 0) {
        std::memmove(targets_.data() + write, targets_.data() + start,
                     k * sizeof(NodeId));
        if (weighted) {
          std::memmove(weights_.data() + write, weights_.data() + start,
                       k * sizeof(Weight));
        }
      }
      offsets_[u] = write;
      write += k;
    }
    offsets_[n] = write;
    targets_.resize(write);
    targets_.shrink_to_fit();
    if (weighted) {
      weights_.resize(write);
      weights_.shrink_to_fit();
    }
  }

  return Csr(std::move(offsets_), std::move(targets_), std::move(weights_));
}

Csr build_streaming_csr(NodeId num_nodes, const StreamingCsrOptions& options,
                        const EdgeEmitter& emit) {
  StreamingCsrBuilder builder(num_nodes, options);
  emit([&](std::span<const EdgeTriple> chunk) { builder.count(chunk); });
  builder.finish_counts();
  emit([&](std::span<const EdgeTriple> chunk) { builder.scatter(chunk); });
  return builder.finish();
}

}  // namespace graffix
