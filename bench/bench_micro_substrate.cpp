// Substrate micro-benchmarks (google-benchmark): generator throughput,
// CSR construction, transpose, prefix sums, the three Graffix transforms
// and a raw SIMT-engine sweep. These track the host-side costs the table
// benches build on (Table 5's preprocessing numbers come from the same
// code paths).
#include <benchmark/benchmark.h>

#include "core/graffix.hpp"
#include "sim/engine.hpp"
#include "util/prefix_sum.hpp"

namespace {

using namespace graffix;

Csr bench_graph(std::uint32_t scale) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = 16;
  return generate_rmat(p);
}

void BM_GenerateRmat(benchmark::State& state) {
  RmatParams p;
  p.scale = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Csr g = generate_rmat(p);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() *
                          (p.edge_factor << p.scale));
}
BENCHMARK(BM_GenerateRmat)->Arg(10)->Arg(12)->Arg(14);

void BM_GenerateErdosRenyi(benchmark::State& state) {
  ErdosRenyiParams p;
  p.scale = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Csr g = generate_erdos_renyi(p);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GenerateErdosRenyi)->Arg(10)->Arg(12);

void BM_Transpose(benchmark::State& state) {
  Csr g = bench_graph(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    Csr t = g.transpose();
    benchmark::DoNotOptimize(t.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_Transpose)->Arg(10)->Arg(12);

void BM_PrefixSum(benchmark::State& state) {
  std::vector<std::uint64_t> values(
      static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto copy = values;
    benchmark::DoNotOptimize(
        exclusive_scan_inplace(std::span<std::uint64_t>(copy)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PrefixSum)->Arg(1 << 14)->Arg(1 << 18);

void BM_ClusteringCoefficients(benchmark::State& state) {
  Csr g = bench_graph(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    auto cc = clustering_coefficients(g);
    benchmark::DoNotOptimize(cc.data());
  }
}
BENCHMARK(BM_ClusteringCoefficients)->Arg(10)->Arg(12);

void BM_TransformCoalescing(benchmark::State& state) {
  Csr g = bench_graph(static_cast<std::uint32_t>(state.range(0)));
  transform::CoalescingKnobs knobs;
  for (auto _ : state) {
    auto result = transform::coalescing_transform(g, knobs);
    benchmark::DoNotOptimize(result.graph.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_TransformCoalescing)->Arg(10)->Arg(12);

void BM_TransformLatency(benchmark::State& state) {
  Csr g = bench_graph(static_cast<std::uint32_t>(state.range(0)));
  transform::LatencyKnobs knobs;
  knobs.cc_threshold = 0.4;
  for (auto _ : state) {
    auto result = transform::latency_transform(g, knobs);
    benchmark::DoNotOptimize(result.graph.num_edges());
  }
}
BENCHMARK(BM_TransformLatency)->Arg(10)->Arg(12);

void BM_TransformDivergence(benchmark::State& state) {
  Csr g = bench_graph(static_cast<std::uint32_t>(state.range(0)));
  transform::DivergenceKnobs knobs;
  for (auto _ : state) {
    auto result = transform::divergence_transform(g, knobs);
    benchmark::DoNotOptimize(result.graph.num_edges());
  }
}
BENCHMARK(BM_TransformDivergence)->Arg(10)->Arg(12);

void BM_EngineSweep(benchmark::State& state) {
  Csr g = bench_graph(static_cast<std::uint32_t>(state.range(0)));
  sim::Engine engine(g, {});
  auto items = sim::items_all_vertices(g);
  for (auto _ : state) {
    sim::KernelStats stats;
    engine.sweep(items, {}, [](NodeId, NodeId, Weight) { return false; },
                 stats);
    benchmark::DoNotOptimize(stats.attr_transactions);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_EngineSweep)->Arg(10)->Arg(12);

void BM_SimPagerank(benchmark::State& state) {
  Csr g = bench_graph(static_cast<std::uint32_t>(state.range(0)));
  core::RunConfig config;
  config.pr_max_iterations = 5;
  for (auto _ : state) {
    auto out = core::run_algorithm(core::Algorithm::PR, g, config);
    benchmark::DoNotOptimize(out.sim_seconds);
  }
}
BENCHMARK(BM_SimPagerank)->Arg(10);

}  // namespace

BENCHMARK_MAIN();
