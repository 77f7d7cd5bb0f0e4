// Paper-scale memory smoke: streaming build -> divergence transform ->
// one min-plus sweep, with per-phase wall time, RSS, and
// scratch-arena high-water recorded, plus the final graph's
// Csr::memory_bytes() so the peak can be gated against the graph size.
//
// This is the binary behind the CI streaming smoke cell: at --scale 20
// the whole pipeline must finish with a process-lifetime peak RSS of at
// most 2.0x the final CSR footprint (DESIGN.md §9). Every phase here
// takes the memory-lean path — make_preset_streaming never materializes
// the triple list, and the transform goes through the consuming
// Csr&& overload so the rebuild frees the base arrays mid-flight.
//
// The getrusage peak is lifetime-monotone, so ordering matters: nothing
// materializing may run in this process, or the gate would measure the
// comparison instead of the streaming pipeline. Per-phase deltas use
// current_rss_bytes(); the gate uses the peak_rss_bytes field that the
// harness stamps on every JSON table.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gen/suite.hpp"
#include "graph/csr.hpp"
#include "harness.hpp"
#include "sim/engine.hpp"
#include "transform/divergence.hpp"
#include "util/arena.hpp"

namespace {

using graffix::Csr;
using graffix::NodeId;
using graffix::Weight;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

NodeId max_degree_node(const Csr& graph) {
  NodeId best = 0, best_degree = 0;
  for (NodeId v = 0; v < graph.num_slots(); ++v) {
    if (!graph.is_hole(v) && graph.degree(v) > best_degree) {
      best = v;
      best_degree = graph.degree(v);
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace graffix;
  const bench::BenchOptions options = bench::parse_args(argc, argv);
  if (bench::json_output_path().empty()) {
    bench::set_json_output("BENCH_memory.json");
  }

  std::vector<bench::MemoryPhaseRow> phases;
  const auto phase = [&](const char* name, auto&& body) {
    bench::MemoryPhaseRow row;
    row.name = name;
    row.rss_before_bytes = current_rss_bytes();
    arena_reset_peak();
    const double t0 = now_seconds();
    body();
    row.seconds = now_seconds() - t0;
    row.arena_peak_bytes = arena_peak_bytes();
    // These phases run once each, so blocks pooled for reuse are idle
    // capital from here on — return them to the OS at the boundary so
    // the next phase's transient (where the lifetime peak lands) sits
    // on live data only, and rss_after reports live data too.
    ScratchArena::global().trim();
    row.rss_after_bytes = current_rss_bytes();
    phases.push_back(std::move(row));
  };

  // Phase 1: streaming preset build (count-scan-scatter over two
  // generator passes; byte-identical to make_preset, never holds the
  // whole-graph triple list).
  Csr graph;
  phase("streaming_build", [&] {
    graph = make_preset_streaming(GraphPreset::Rmat26, options.scale,
                                  options.seed);
  });

  // Phase 2: one divergence transform through the consuming overload —
  // the base targets array is freed before the new weights allocate.
  transform::DivergenceResult transformed;
  phase("divergence_transform", [&] {
    transformed =
        transform::divergence_transform(std::move(graph), transform::DivergenceKnobs{});
  });
  graph = std::move(transformed.graph);

  // Phase 3: one min-plus sweep (Jacobi relaxation from the
  // max-degree node) over the transformed graph — proves the engine's
  // sweep scratch stays within the arena budget at paper scale.
  std::uint64_t reached = 0;
  phase("sweep", [&] {
    sim::Engine engine(graph, sim::SimConfig{});
    const auto items = sim::items_all_vertices(graph);
    sim::SweepOptions opts;
    opts.weighted = graph.has_weights();
    std::vector<double> dist(graph.num_slots(),
                             std::numeric_limits<double>::infinity());
    dist[max_degree_node(graph)] = 0.0;
    std::vector<double> next(dist);
    sim::KernelStats stats;
    engine.sweep_gated(
        items, opts, [&](NodeId u) { return std::isfinite(dist[u]); },
        [&](NodeId u, NodeId v, Weight w) {
          const double nd = dist[u] + static_cast<double>(w);
          if (nd < next[v]) {
            next[v] = nd;
            return true;
          }
          return false;
        },
        stats);
    for (const double d : next) reached += std::isfinite(d) ? 1 : 0;
  });

  const std::uint64_t csr_bytes = graph.memory_bytes();
  bench::print_memory_table(
      "Streaming pipeline memory (scale " + std::to_string(options.scale) + ")",
      phases, csr_bytes, graph.num_nodes(), graph.num_edges());

  const double ratio =
      csr_bytes == 0 ? 0.0
                     : static_cast<double>(peak_rss_bytes()) /
                           static_cast<double>(csr_bytes);
  std::printf("sweep reached %llu nodes; peak RSS %.1f MiB = %.2fx CSR\n",
              static_cast<unsigned long long>(reached),
              static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0), ratio);
  return 0;
}
