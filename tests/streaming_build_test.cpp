// Differential tests for the streaming CSR build path (DESIGN.md §9):
// for every Table-1 generator, the streaming build must produce a Csr
// BYTE-IDENTICAL to the materializing GraphBuilder path — at 1/2/8
// worker threads and chunk sizes {1, 4096, whole-stream} — plus the
// degenerate shapes (empty graph, single edge, self-loops-only) and the
// dedup/unweighted option combinations.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "gen/road_grid.hpp"
#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/streaming_builder.hpp"
#include "util/parallel.hpp"

namespace graffix {
namespace {

/// Byte-level equality: spans must match element-for-element, weights
/// compared as bits (NaN-safe, -0.0 != +0.0).
void expect_csr_bytes_equal(const Csr& a, const Csr& b) {
  ASSERT_EQ(a.num_slots(), b.num_slots());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  const auto ao = a.offsets(), bo = b.offsets();
  ASSERT_EQ(ao.size(), bo.size());
  EXPECT_EQ(std::memcmp(ao.data(), bo.data(), ao.size_bytes()), 0);
  const auto at = a.targets(), bt = b.targets();
  ASSERT_EQ(at.size(), bt.size());
  EXPECT_EQ(std::memcmp(at.data(), bt.data(), at.size_bytes()), 0);
  const auto aw = a.weights(), bw = b.weights();
  ASSERT_EQ(aw.size(), bw.size());
  if (!aw.empty()) {
    EXPECT_EQ(std::memcmp(aw.data(), bw.data(), aw.size_bytes()), 0);
  }
}

// Worker counts the determinism contract is pinned at; 8 deliberately
// oversubscribes small CI machines (outputs must not care).
const int kThreadCounts[] = {1, 2, 8};
// 1 exercises per-edge chunking, 4096 forces mid-block chunk boundaries
// (kGenBlock = 16384), 0 = whole stream in one span.
const std::size_t kChunks[] = {1, 4096, 0};

template <typename Materialize, typename Stream>
void run_matrix(Materialize&& materialize, Stream&& stream) {
  const Csr reference = materialize();
  for (int threads : kThreadCounts) {
    const ScopedNumThreads pin(threads);
    for (std::size_t chunk : kChunks) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " chunk=" << chunk);
      expect_csr_bytes_equal(reference, stream(chunk));
      // The materializing path must also be thread-count-invariant.
      expect_csr_bytes_equal(reference, materialize());
    }
  }
}

TEST(StreamingBuild, RmatMatchesMaterializing) {
  RmatParams p;
  p.scale = 12;  // 65536 edges = 4 generator blocks
  p.edge_factor = 16;
  run_matrix([&] { return generate_rmat(p); },
             [&](std::size_t chunk) { return generate_rmat_streaming(p, chunk); });
}

TEST(StreamingBuild, RmatUnweightedDedupMatchesMaterializing) {
  RmatParams p;
  p.scale = 11;
  p.edge_factor = 8;
  p.weighted = false;
  p.dedup = true;
  run_matrix([&] { return generate_rmat(p); },
             [&](std::size_t chunk) { return generate_rmat_streaming(p, chunk); });
}

TEST(StreamingBuild, RmatWeightedDedupMatchesMaterializing) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.dedup = true;
  run_matrix([&] { return generate_rmat(p); },
             [&](std::size_t chunk) { return generate_rmat_streaming(p, chunk); });
}

TEST(StreamingBuild, ErdosRenyiMatchesMaterializing) {
  ErdosRenyiParams p;
  p.scale = 12;
  p.edge_factor = 16;
  run_matrix([&] { return generate_erdos_renyi(p); },
             [&](std::size_t chunk) {
               return generate_erdos_renyi_streaming(p, chunk);
             });
}

TEST(StreamingBuild, RoadGridMatchesMaterializing) {
  RoadGridParams p;
  p.width = 64;
  p.height = 64;
  run_matrix([&] { return generate_road_grid(p); },
             [&](std::size_t chunk) {
               return generate_road_grid_streaming(p, chunk);
             });
}

TEST(StreamingBuild, AllPresetsMatchMaterializing) {
  for (GraphPreset preset : all_presets()) {
    const Csr reference = make_preset(preset, 8, 42);
    for (std::size_t chunk : kChunks) {
      SCOPED_TRACE(testing::Message()
                   << preset_name(preset) << " chunk=" << chunk);
      expect_csr_bytes_equal(reference, make_preset_streaming(preset, 8, 42, chunk));
    }
  }
}

TEST(StreamingBuild, EmptyGraph) {
  StreamingCsrOptions o;
  const Csr g = build_streaming_csr(NodeId{0}, o, [](const EdgeSink&) {});
  EXPECT_EQ(g.num_slots(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  const Csr g2 =
      build_streaming_csr(NodeId{16}, o, [](const EdgeSink&) {});
  EXPECT_EQ(g2.num_slots(), 16u);
  EXPECT_EQ(g2.num_edges(), 0u);
  for (NodeId u = 0; u < 16; ++u) EXPECT_EQ(g2.degree(u), 0u);
}

TEST(StreamingBuild, SingleEdge) {
  StreamingCsrOptions o;
  o.weighted = true;
  const std::vector<EdgeTriple> edges = {{2, 5, 7.5f}};
  const Csr g = build_streaming_csr(NodeId{8}, o, [&](const EdgeSink& sink) {
    sink(std::span<const EdgeTriple>(edges));
  });
  GraphBuilder b(8);
  b.set_weighted(true);
  b.add_edge(2, 5, 7.5f);
  expect_csr_bytes_equal(b.build(), g);
}

TEST(StreamingBuild, SelfLoopsOnlyDropsToEmpty) {
  StreamingCsrOptions o;
  o.drop_self_loops = true;
  const std::vector<EdgeTriple> edges = {{0, 0, 1.0f}, {3, 3, 1.0f}};
  const Csr g = build_streaming_csr(NodeId{4}, o, [&](const EdgeSink& sink) {
    // One edge per chunk, exercising the per-chunk self-loop filter.
    for (const EdgeTriple& e : edges) {
      sink(std::span<const EdgeTriple>(&e, 1));
    }
  });
  EXPECT_EQ(g.num_slots(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(StreamingBuild, DedupKeepsMinWeightAcrossChunks) {
  StreamingCsrOptions o;
  o.weighted = true;
  o.dedup = GraphBuilder::Dedup::KeepMinWeight;
  const std::vector<EdgeTriple> edges = {
      {1, 2, 5.0f}, {1, 2, 3.0f}, {1, 3, 9.0f}, {1, 2, 4.0f}, {0, 2, 1.0f}};
  const Csr g = build_streaming_csr(NodeId{4}, o, [&](const EdgeSink& sink) {
    sink(std::span<const EdgeTriple>(edges.data(), 2));
    sink(std::span<const EdgeTriple>(edges.data() + 2, 3));
  });
  GraphBuilder b(4);
  b.set_weighted(true);
  b.set_dedup(GraphBuilder::Dedup::KeepMinWeight);
  for (const EdgeTriple& e : edges) b.add_edge(e.src, e.dst, e.weight);
  expect_csr_bytes_equal(b.build(), g);
  ASSERT_EQ(g.degree(1), 2u);
  EXPECT_FLOAT_EQ(g.edge_weights(1)[0], 3.0f);  // min of the 1->2 multi-edge
}

TEST(StreamingBuild, EmitChunkingIsBoundaryInvariant) {
  // Concatenating emitted spans must not depend on the chunk size.
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 4;
  std::vector<EdgeTriple> whole, tiny;
  emit_rmat(p, 0, [&](std::span<const EdgeTriple> c) {
    whole.insert(whole.end(), c.begin(), c.end());
  });
  emit_rmat(p, 17, [&](std::span<const EdgeTriple> c) {
    EXPECT_LE(c.size(), 17u);
    tiny.insert(tiny.end(), c.begin(), c.end());
  });
  ASSERT_EQ(whole.size(), tiny.size());
  EXPECT_EQ(std::memcmp(whole.data(), tiny.data(),
                        whole.size() * sizeof(EdgeTriple)),
            0);
}

}  // namespace
}  // namespace graffix
