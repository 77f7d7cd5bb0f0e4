// Unit tests for the graph substrate: CSR invariants, the builder
// (sorting, dedup, self loops), transpose/symmetrize, I/O round-trips,
// structural properties, and validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "graph/subgraph.hpp"
#include "graph/validate.hpp"
#include "diameter_oracle.hpp"

namespace graffix {
namespace {

/// A 20-node example in the spirit of the paper's Figure 1.
Csr figure1_graph() {
  GraphBuilder b(20);
  const std::pair<int, int> edges[] = {
      {0, 4},  {0, 5},  {0, 6},  {0, 7},  {0, 8},  {0, 13}, {0, 14},
      {1, 0},  {1, 10}, {1, 12}, {1, 15}, {1, 17}, {1, 18},
      {2, 0},  {2, 11}, {2, 19},
      {3, 19},
      {4, 5},  {6, 17}, {7, 15},
      {9, 8},  {16, 2},
  };
  for (auto [u, v] : edges) b.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  return b.build();
}

Csr diamond() {
  // 0 -> {1,2} -> 3
  GraphBuilder b(4);
  b.set_weighted(true);
  b.add_edge(0, 1, 1.0f);
  b.add_edge(0, 2, 2.0f);
  b.add_edge(1, 3, 3.0f);
  b.add_edge(2, 3, 4.0f);
  return b.build();
}

TEST(Builder, BuildsSortedCsr) {
  GraphBuilder b(4);
  b.add_edge(2, 1);
  b.add_edge(0, 3);
  b.add_edge(0, 1);
  Csr g = b.build();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  ASSERT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);
  EXPECT_EQ(g.neighbors(0)[1], 3u);
  EXPECT_EQ(g.degree(1), 0u);
  EXPECT_EQ(g.degree(2), 1u);
}

TEST(Builder, DedupKeepsMinWeight) {
  GraphBuilder b(2);
  b.set_weighted(true);
  b.set_dedup(GraphBuilder::Dedup::KeepMinWeight);
  b.add_edge(0, 1, 5.0f);
  b.add_edge(0, 1, 2.0f);
  b.add_edge(0, 1, 9.0f);
  Csr g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FLOAT_EQ(g.edge_weights(0)[0], 2.0f);
}

TEST(Builder, DropSelfLoops) {
  GraphBuilder b(3);
  b.set_drop_self_loops(true);
  b.add_edge(0, 0);
  b.add_edge(1, 2);
  b.add_edge(2, 2);
  Csr g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Builder, ParallelEdgesKeptWithoutDedup) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  Csr g = b.build();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Csr, EmptyGraph) {
  GraphBuilder b(0);
  Csr g = b.build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Csr, HoleMaskReducesNodeCount) {
  // Three slots, middle one a hole with no edges.
  std::vector<EdgeId> offsets{0, 1, 1, 2};
  std::vector<NodeId> targets{2, 0};
  Csr g(std::move(offsets), std::move(targets), {}, {0, 1, 0});
  EXPECT_EQ(g.num_slots(), 3u);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_TRUE(g.is_hole(1));
  EXPECT_FALSE(g.is_hole(0));
  EXPECT_TRUE(validate_graph(g).ok);
}

TEST(Csr, TransposeReversesEdges) {
  Csr g = diamond();
  Csr t = g.transpose();
  EXPECT_EQ(t.num_edges(), g.num_edges());
  ASSERT_EQ(t.degree(3), 2u);
  EXPECT_EQ(t.neighbors(3)[0], 1u);
  EXPECT_EQ(t.neighbors(3)[1], 2u);
  // Weight follows the edge.
  EXPECT_FLOAT_EQ(t.edge_weights(3)[0], 3.0f);
  // Double transpose = original.
  Csr tt = t.transpose();
  EXPECT_EQ(std::vector<NodeId>(tt.targets().begin(), tt.targets().end()),
            std::vector<NodeId>(g.targets().begin(), g.targets().end()));
}

TEST(Csr, SymmetrizedContainsBothDirections) {
  Csr g = diamond();
  Csr s = g.symmetrized();
  // Every edge mirrored; diamond has 4 distinct arcs -> 8 arcs symmetric.
  EXPECT_EQ(s.num_edges(), 8u);
  auto has_edge = [&](NodeId u, NodeId v) {
    for (NodeId x : s.neighbors(u)) {
      if (x == v) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_edge(1, 0));
  EXPECT_TRUE(has_edge(3, 1));
  EXPECT_TRUE(has_edge(0, 1));
}

TEST(Csr, MemoryBytesGrowsWithEdges) {
  Csr small = diamond();
  Csr big = figure1_graph();
  EXPECT_GT(big.memory_bytes(), 0u);
  EXPECT_GT(big.memory_bytes(), small.memory_bytes() / 2);
}

TEST(Csr, MemoryBytesAccountsForEveryOwnedArray) {
  // Audit: offsets + targets + weights + holes must all be counted, at
  // allocated capacity — this number is the denominator of the bench
  // peak-RSS gate, so undercounting would loosen the gate.
  const Csr plain({0, 2, 3, 3}, {1, 2, 0}, {}, {});
  const std::size_t floor_plain = 4 * sizeof(EdgeId) + 3 * sizeof(NodeId);
  EXPECT_GE(plain.memory_bytes(), floor_plain);

  const Csr weighted({0, 2, 3, 3}, {1, 2, 0}, {1.0f, 2.0f, 3.0f}, {});
  EXPECT_GE(weighted.memory_bytes(),
            plain.memory_bytes() + 3 * sizeof(Weight));

  const Csr holed({0, 2, 3, 3}, {1, 2, 0}, {1.0f, 2.0f, 3.0f}, {0, 0, 1});
  EXPECT_GE(holed.memory_bytes(), weighted.memory_bytes() + 3);
}

TEST(Csr, TakePartsDisassemblesAndLeavesValidEmptyGraph) {
  Csr g({0, 2, 3, 3}, {1, 2, 0}, {1.0f, 2.0f, 3.0f}, {0, 0, 1});
  auto parts = std::move(g).take_parts();
  EXPECT_EQ(parts.offsets, (std::vector<EdgeId>{0, 2, 3, 3}));
  EXPECT_EQ(parts.targets, (std::vector<NodeId>{1, 2, 0}));
  EXPECT_EQ(parts.weights, (std::vector<Weight>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(parts.holes, (std::vector<std::uint8_t>{0, 0, 1}));
  // The husk is a usable empty graph, not a booby trap.
  EXPECT_EQ(g.num_slots(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.has_weights());
  EXPECT_TRUE(validate_graph(g).ok);
}

TEST(Validate, DetectsHoleWithEdges) {
  std::vector<EdgeId> offsets{0, 1, 2};
  std::vector<NodeId> targets{1, 0};
  Csr g(std::move(offsets), std::move(targets), {}, {0, 1});
  EXPECT_FALSE(validate_graph(g).ok);
}

TEST(Validate, DetectsEdgeIntoHole) {
  std::vector<EdgeId> offsets{0, 1, 1};
  std::vector<NodeId> targets{1};
  Csr g(std::move(offsets), std::move(targets), {}, {0, 1});
  EXPECT_FALSE(validate_graph(g).ok);
}

TEST(Validate, AcceptsCleanGraph) {
  EXPECT_TRUE(validate_graph(figure1_graph()).ok);
}

TEST(Validate, DetectsNaNWeight) {
  std::vector<EdgeId> offsets{0, 1, 1};
  std::vector<NodeId> targets{1};
  std::vector<Weight> weights{std::numeric_limits<Weight>::quiet_NaN()};
  Csr g(std::move(offsets), std::move(targets), std::move(weights));
  const auto report = validate_graph(g);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.message.find("bad weight"), std::string::npos);
}

TEST(Validate, DetectsNegativeWeight) {
  std::vector<EdgeId> offsets{0, 1, 1};
  std::vector<NodeId> targets{1};
  std::vector<Weight> weights{-1.0f};
  Csr g(std::move(offsets), std::move(targets), std::move(weights));
  EXPECT_FALSE(validate_graph(g).ok);
}

TEST(Validate, DetectsNonMonotoneOffsets) {
  // The Csr constructor only pins offsets.back(); a decreasing interior
  // offset must be caught by validation, not by unsigned-underflow UB.
  std::vector<EdgeId> offsets{0, 2, 1, 3};
  std::vector<NodeId> targets{1, 2, 0};
  Csr g(std::move(offsets), std::move(targets));
  const auto report = validate_graph(g);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.message.find("not monotone"), std::string::npos);
}

TEST(Validate, ValidationEnabledReadsEnvironment) {
  ::unsetenv("GRAFFIX_VALIDATE");
  EXPECT_FALSE(validation_enabled());
  ::setenv("GRAFFIX_VALIDATE", "1", 1);
  EXPECT_TRUE(validation_enabled());
  ::setenv("GRAFFIX_VALIDATE", "0", 1);
  EXPECT_FALSE(validation_enabled());
  ::setenv("GRAFFIX_VALIDATE", "", 1);
  EXPECT_FALSE(validation_enabled());
  ::unsetenv("GRAFFIX_VALIDATE");
}

TEST(Properties, DegreeStats) {
  Csr g = diamond();
  const DegreeStats stats = degree_stats(g);
  EXPECT_EQ(stats.min, 0u);
  EXPECT_EQ(stats.max, 2u);
  EXPECT_DOUBLE_EQ(stats.mean, 1.0);
}

TEST(Properties, ClusteringCoefficientOfTriangle) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  Csr g = b.build();
  const auto cc = clustering_coefficients(g);
  EXPECT_DOUBLE_EQ(cc[0], 1.0);
  EXPECT_DOUBLE_EQ(cc[1], 1.0);
  EXPECT_DOUBLE_EQ(cc[2], 1.0);
  EXPECT_DOUBLE_EQ(average_clustering_coefficient(cc, g), 1.0);
}

TEST(Properties, ClusteringCoefficientOfStarIsZero) {
  GraphBuilder b(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) b.add_edge(0, leaf);
  Csr g = b.build();
  const auto cc = clustering_coefficients(g);
  EXPECT_DOUBLE_EQ(cc[0], 0.0);
}

TEST(Properties, BfsLevelsOnPath) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  Csr g = b.build();
  const auto levels = bfs_levels(g, 0);
  EXPECT_EQ(levels[0], 0u);
  EXPECT_EQ(levels[3], 3u);
}

TEST(Properties, BfsUnreachableIsInvalid) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  Csr g = b.build();
  const auto levels = bfs_levels(g, 0);
  EXPECT_EQ(levels[2], kInvalidNode);
}

TEST(Properties, PseudoDiameterOfPath) {
  GraphBuilder b(10);
  for (NodeId i = 0; i + 1 < 10; ++i) b.add_edge(i, i + 1);
  Csr g = b.build();
  EXPECT_EQ(pseudo_diameter(g), 9u);
}

TEST(Properties, InducedSubgraphDiameter) {
  Csr g = figure1_graph();
  const std::vector<NodeId> nodes{0, 4, 5, 6, 7};
  // Undirected induced: 0-4, 0-5, 0-6, 0-7, 4-5 -> diameter 2 (4 to 6).
  EXPECT_EQ(testing::induced_subgraph_diameter(g, nodes), 2u);
}

TEST(Properties, DegreeHistogramBuckets) {
  // Degrees: 0 -> 7, 1 -> 6, 2 -> 3, rest small.
  Csr g = figure1_graph();
  const auto hist = degree_histogram(g);
  // Bucket 0: degree-0 nodes; bucket 3: degrees 4-7 (nodes 0 and 1).
  ASSERT_GE(hist.size(), 4u);
  EXPECT_EQ(hist[3], 2u);
  NodeId total = 0;
  for (NodeId c : hist) total += c;
  EXPECT_EQ(total, g.num_nodes());
}

TEST(Properties, MetricQuantiles) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  Csr g = b.build();
  const std::vector<double> metric{5.0, 1.0, 3.0, 2.0, 4.0};
  const std::vector<double> qs{0.0, 0.5, 0.99};
  const auto out = metric_quantiles(g, metric, qs);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 3.0);
  EXPECT_DOUBLE_EQ(out[2], 5.0);
}

TEST(Properties, QuantilesSkipHoles) {
  std::vector<EdgeId> offsets{0, 0, 0, 0};
  Csr g(std::move(offsets), {}, {}, {0, 1, 0});
  const std::vector<double> metric{1.0, 100.0, 3.0};
  const std::vector<double> qs{0.99};
  const auto out = metric_quantiles(g, metric, qs);
  EXPECT_DOUBLE_EQ(out[0], 3.0);  // the hole's 100.0 is ignored
}

TEST(Properties, WeaklyConnectedComponents) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  Csr g = b.build();
  EXPECT_EQ(weakly_connected_components(g), 3u);
}

TEST(Subgraph, ExtractsInducedEdges) {
  Csr g = figure1_graph();
  const std::vector<NodeId> members{0, 4, 5, 13};
  const auto sub = induced_subgraph(g, members);
  EXPECT_EQ(sub.graph.num_nodes(), 4u);
  // Induced edges: 0->4, 0->5, 0->13, 4->5.
  EXPECT_EQ(sub.graph.num_edges(), 4u);
  EXPECT_EQ(sub.to_global(sub.to_local(4)), 4u);
  EXPECT_EQ(sub.to_local(1), kInvalidNode);
  // Edge 4->5 survives under local ids.
  const NodeId l4 = sub.to_local(4), l5 = sub.to_local(5);
  bool found = false;
  for (NodeId v : sub.graph.neighbors(l4)) found = found || v == l5;
  EXPECT_TRUE(found);
}

TEST(Subgraph, PreservesWeights) {
  Csr g = diamond();
  const std::vector<NodeId> members{0, 1, 3};
  const auto sub = induced_subgraph(g, members);
  EXPECT_EQ(sub.graph.num_edges(), 2u);  // 0->1, 1->3
  ASSERT_TRUE(sub.graph.has_weights());
  const NodeId l1 = sub.to_local(1);
  EXPECT_FLOAT_EQ(sub.graph.edge_weights(l1)[0], 3.0f);
}

TEST(Subgraph, DuplicatesIgnoredAndEmptyOk) {
  Csr g = diamond();
  const std::vector<NodeId> dups{2, 2, 2};
  const auto sub = induced_subgraph(g, dups);
  EXPECT_EQ(sub.graph.num_nodes(), 1u);
  EXPECT_EQ(sub.graph.num_edges(), 0u);
  const auto empty = induced_subgraph(g, std::vector<NodeId>{});
  EXPECT_EQ(empty.graph.num_nodes(), 0u);
}

class IoTest : public ::testing::Test {
 protected:
  std::string path(const char* name) {
    return (std::filesystem::temp_directory_path() /
            (std::string("graffix_io_") + name))
        .string();
  }
  void TearDown() override {
    for (const auto& p : created_) std::remove(p.c_str());
  }
  std::vector<std::string> created_;
};

TEST_F(IoTest, EdgeListRoundTrip) {
  Csr g = figure1_graph();
  const std::string p = path("edges.txt");
  created_.push_back(p);
  write_edge_list(g, p);
  Csr back = read_edge_list(p, /*weighted=*/false, g.num_nodes());
  EXPECT_EQ(back.num_nodes(), g.num_nodes());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  EXPECT_EQ(std::vector<NodeId>(back.targets().begin(), back.targets().end()),
            std::vector<NodeId>(g.targets().begin(), g.targets().end()));
}

TEST_F(IoTest, WeightedEdgeListRoundTrip) {
  Csr g = diamond();
  const std::string p = path("wedges.txt");
  created_.push_back(p);
  write_edge_list(g, p);
  Csr back = read_edge_list(p, /*weighted=*/true, g.num_nodes());
  ASSERT_TRUE(back.has_weights());
  EXPECT_FLOAT_EQ(back.edge_weights(0)[0], 1.0f);
  EXPECT_FLOAT_EQ(back.edge_weights(2)[0], 4.0f);
}

TEST_F(IoTest, BinaryRoundTripWithHolesAndWeights) {
  std::vector<EdgeId> offsets{0, 2, 2, 3};
  std::vector<NodeId> targets{2, 2, 0};
  std::vector<Weight> weights{1.5f, 2.5f, 3.5f};
  Csr g(std::move(offsets), std::move(targets), std::move(weights), {0, 1, 0});
  const std::string p = path("graph.bin");
  created_.push_back(p);
  write_binary(g, p);
  Csr back = read_binary(p);
  EXPECT_EQ(back.num_slots(), 3u);
  EXPECT_EQ(back.num_nodes(), 2u);
  EXPECT_TRUE(back.is_hole(1));
  EXPECT_FLOAT_EQ(back.edge_weights(0)[1], 2.5f);
}

TEST_F(IoTest, LongCommentLineDoesNotYieldBogusEdge) {
  // Regression: lines were read through a fixed 512-byte fgets buffer;
  // a comment longer than that was silently split, and when the tail of
  // the split started with digits it re-parsed as a phantom edge.
  const std::string p = path("longcomment.txt");
  created_.push_back(p);
  std::FILE* f = std::fopen(p.c_str(), "w");
  std::string comment = "# ";
  comment.append(509, 'x');  // the old buffer split exactly after 511 chars
  comment += "7 8\n";
  std::fputs(comment.c_str(), f);
  std::fputs("0 1\n", f);
  std::fclose(f);
  Csr g = read_edge_list(p, /*weighted=*/false, 2);
  EXPECT_EQ(g.num_nodes(), 2u);  // a phantom "7 8" edge would force 9
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);
}

TEST_F(IoTest, LongEdgeLineParsesWholeLine) {
  // An edge line whose numbers straddle the old 512-byte buffer boundary
  // was silently dropped (the first fragment held only one number).
  const std::string p = path("longedge.txt");
  created_.push_back(p);
  std::FILE* f = std::fopen(p.c_str(), "w");
  std::string line(510, ' ');
  line += "5 6\n";  // '5' lands at index 510, the last slot of the old read
  std::fputs(line.c_str(), f);
  std::fclose(f);
  Csr g = read_edge_list(p, /*weighted=*/false, 0);
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.num_nodes(), 7u);
  EXPECT_EQ(g.neighbors(5)[0], 6u);
}

TEST_F(IoTest, DimacsParsing) {
  const std::string p = path("road.gr");
  created_.push_back(p);
  std::FILE* f = std::fopen(p.c_str(), "w");
  std::fputs("c comment line\np sp 3 2\na 1 2 7\na 2 3 9\n", f);
  std::fclose(f);
  Csr g = read_dimacs(p);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_FLOAT_EQ(g.edge_weights(0)[0], 7.0f);
  EXPECT_EQ(g.neighbors(1)[0], 2u);
}

TEST_F(IoTest, MatrixMarketRoundTrip) {
  Csr g = diamond();
  const std::string p = path("graph.mtx");
  created_.push_back(p);
  write_matrix_market(g, p);
  Csr back = read_matrix_market(p);
  EXPECT_EQ(back.num_nodes(), g.num_nodes());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  ASSERT_TRUE(back.has_weights());
  EXPECT_FLOAT_EQ(back.edge_weights(0)[0], 1.0f);
  EXPECT_FLOAT_EQ(back.edge_weights(2)[0], 4.0f);
}

TEST_F(IoTest, MatrixMarketSymmetricMirrored) {
  const std::string p = path("sym.mtx");
  created_.push_back(p);
  std::FILE* f = std::fopen(p.c_str(), "w");
  std::fputs(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% a comment\n"
      "3 3 2\n"
      "2 1\n"
      "3 2\n",
      f);
  std::fclose(f);
  Csr g = read_matrix_market(p);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);  // both directions
  EXPECT_FALSE(g.has_weights());
  EXPECT_EQ(g.neighbors(0)[0], 1u);
  EXPECT_EQ(g.neighbors(1)[0], 0u);
}

TEST_F(IoTest, MatrixMarketRejectsGarbage) {
  const std::string p = path("bad.mtx");
  created_.push_back(p);
  std::FILE* f = std::fopen(p.c_str(), "w");
  std::fputs("hello world\n", f);
  std::fclose(f);
  EXPECT_THROW((void)read_matrix_market(p), std::runtime_error);
}

TEST_F(IoTest, MatrixMarketRejectsTruncation) {
  const std::string p = path("trunc.mtx");
  created_.push_back(p);
  std::FILE* f = std::fopen(p.c_str(), "w");
  std::fputs(
      "%%MatrixMarket matrix coordinate real general\n"
      "4 4 3\n"
      "1 2 1.5\n",
      f);
  std::fclose(f);
  EXPECT_THROW((void)read_matrix_market(p), std::runtime_error);
}

TEST_F(IoTest, MatrixMarketRejectsOutOfRangeEntry) {
  const std::string p = path("range.mtx");
  created_.push_back(p);
  std::FILE* f = std::fopen(p.c_str(), "w");
  std::fputs(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "5 1 1.0\n",
      f);
  std::fclose(f);
  EXPECT_THROW((void)read_matrix_market(p), std::runtime_error);
}

TEST_F(IoTest, TruncatedBinaryThrows) {
  Csr g = figure1_graph();
  const std::string p = path("cut.bin");
  created_.push_back(p);
  write_binary(g, p);
  // Chop the file in half.
  std::filesystem::resize_file(p, std::filesystem::file_size(p) / 2);
  EXPECT_THROW((void)read_binary(p), std::runtime_error);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW((void)read_edge_list("/nonexistent/graffix.txt"),
               std::runtime_error);
  EXPECT_THROW((void)read_binary("/nonexistent/graffix.bin"),
               std::runtime_error);
}

TEST_F(IoTest, BadMagicThrows) {
  const std::string p = path("bad.bin");
  created_.push_back(p);
  std::FILE* f = std::fopen(p.c_str(), "wb");
  const std::uint64_t junk = 0xdeadbeef;
  std::fwrite(&junk, sizeof(junk), 1, f);
  std::fclose(f);
  EXPECT_THROW((void)read_binary(p), std::runtime_error);
}

}  // namespace
}  // namespace graffix
