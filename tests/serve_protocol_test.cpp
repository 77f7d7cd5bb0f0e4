// Wire-protocol contract for `graffix serve`: request parsing, response
// rendering, query correctness against the host references, transform
// publication, and the copy-on-write snapshot lifecycle. All server-level
// tests drive a real Server over a socketpair — the same byte path an
// external client uses.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/sssp.hpp"
#include "core/runners.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/properties.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"

namespace graffix::serve {
namespace {

using graffix::serve::testing::LineClient;
using graffix::serve::testing::connect_client;

/// Weighted diamond + tail + an isolated vertex (7 unreachable from 0).
Csr small_graph() {
  GraphBuilder b(8);
  b.add_edge(0, 1, 1.0F);
  b.add_edge(0, 2, 4.0F);
  b.add_edge(1, 2, 2.0F);
  b.add_edge(1, 3, 7.0F);
  b.add_edge(2, 3, 1.0F);
  b.add_edge(3, 4, 3.0F);
  b.add_edge(4, 5, 1.0F);
  b.add_edge(5, 6, 2.5F);
  b.add_edge(2, 6, 9.0F);
  return b.build();
}

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

// ---- parse_request ------------------------------------------------------

TEST(ServeParse, AcceptsMinimalOps) {
  ParseResult p = parse_request(R"({"id":7,"op":"ping"})");
  ASSERT_TRUE(p.ok) << p.message;
  EXPECT_EQ(p.request.id, 7U);
  EXPECT_EQ(p.request.op, Op::Ping);

  p = parse_request(R"({"id":1,"op":"stats"})");
  ASSERT_TRUE(p.ok) << p.message;
  EXPECT_EQ(p.request.op, Op::Stats);

  p = parse_request(R"({"id":2,"op":"shutdown"})");
  ASSERT_TRUE(p.ok) << p.message;
  EXPECT_EQ(p.request.op, Op::Shutdown);
}

TEST(ServeParse, QueryFieldsRoundTrip) {
  const ParseResult p = parse_request(
      R"({"id":9,"op":"query","alg":"sssp","source":3,"nodes":[0,5],)"
      R"("variant":"sp","deadline_ms":12.5,"seed":7})");
  ASSERT_TRUE(p.ok) << p.message;
  EXPECT_EQ(p.request.alg, QueryAlg::Sssp);
  EXPECT_TRUE(p.request.has_source);
  EXPECT_EQ(p.request.source, 3U);
  ASSERT_EQ(p.request.nodes.size(), 2U);
  EXPECT_EQ(p.request.nodes[1], 5U);
  EXPECT_EQ(p.request.variant, "sp");
  EXPECT_DOUBLE_EQ(p.request.deadline_ms, 12.5);
  EXPECT_EQ(p.request.seed, 7U);
}

TEST(ServeParse, TypedErrorsForEveryMalformation) {
  // Not JSON at all.
  EXPECT_EQ(parse_request("{nope").code, ErrorCode::ParseError);
  // Valid JSON, not an object.
  EXPECT_EQ(parse_request("[1,2]").code, ErrorCode::ParseError);
  // Trailing garbage after a well-formed object.
  EXPECT_EQ(parse_request(R"({"id":1,"op":"ping"} x)").code,
            ErrorCode::ParseError);
  // Unknown discriminators.
  EXPECT_EQ(parse_request(R"({"id":1,"op":"dance"})").code,
            ErrorCode::UnknownOp);
  EXPECT_EQ(parse_request(R"({"id":1,"op":"query","alg":"apsp","source":0})").code,
            ErrorCode::UnknownAlgorithm);
  // Missing / mistyped required fields.
  EXPECT_EQ(parse_request(R"({"id":1,"op":"query","alg":"sssp"})").code,
            ErrorCode::BadRequest);
  EXPECT_EQ(parse_request(R"({"id":1,"op":"query","alg":"sssp","source":-4})").code,
            ErrorCode::BadSource);
  EXPECT_EQ(
      parse_request(
          R"({"id":1,"op":"query","alg":"sssp","source":0,"deadline_ms":-1})")
          .code,
      ErrorCode::BadRequest);
  // Renumbering transforms are rejected at parse (not servable).
  EXPECT_EQ(parse_request(R"({"id":1,"op":"transform","kind":"coalescing"})").code,
            ErrorCode::BadRequest);
}

TEST(ServeParse, ErrorFramesStillRecoverTheId) {
  const ParseResult p =
      parse_request(R"({"id":41,"op":"query","alg":"nope","source":0})");
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.request.id, 41U);
}

TEST(ServeParse, EchoNodeCapEnforced) {
  std::string nodes = "[";
  for (std::size_t i = 0; i <= kMaxEchoNodes; ++i) {
    if (i != 0) nodes += ",";
    nodes += "0";
  }
  nodes += "]";
  const ParseResult p = parse_request(
      R"({"id":1,"op":"query","alg":"sssp","source":0,"nodes":)" + nodes + "}");
  EXPECT_EQ(p.code, ErrorCode::BadRequest);
}

TEST(ServeRender, FixedByteLayout) {
  EXPECT_EQ(render_error(3, ErrorCode::Overloaded, "full"),
            R"({"id":3,"ok":false,"error":{"code":"overloaded","message":"full"}})");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "\"inf\"");
}

// ---- Live server --------------------------------------------------------

TEST(ServeProtocol, PingPongExactBytes) {
  Server server(small_graph());
  server.start();
  auto client = connect_client(server);
  client->send(R"({"id":11,"op":"ping"})");
  EXPECT_EQ(client->recv_or_die(), R"({"id":11,"ok":true,"pong":true})");
  server.stop();
}

TEST(ServeProtocol, SsspMatchesDijkstra) {
  const Csr graph = small_graph();
  Server server(graph);
  server.start();
  auto client = connect_client(server);
  client->send(
      R"({"id":1,"op":"query","alg":"sssp","source":0,"nodes":[0,3,4,6,7]})");
  const std::string line = client->recv_or_die();
  EXPECT_TRUE(contains(line, R"("ok":true)")) << line;
  EXPECT_TRUE(contains(line, R"("alg":"sssp")")) << line;
  EXPECT_TRUE(contains(line, R"("variant":"base","version":1)")) << line;

  const std::vector<Weight> golden = sssp_dijkstra(graph, 0);
  NodeId reachable = 0;
  for (const Weight d : golden) {
    if (d < kInfWeight) ++reachable;
  }
  EXPECT_TRUE(contains(line, "\"reached\":" + std::to_string(reachable)))
      << line;

  // Echo values: serve accumulates in double, the host golden in float —
  // compare numerically, not byte-wise.
  const std::size_t values_at = line.find("\"values\":[");
  ASSERT_NE(values_at, std::string::npos);
  const std::string values =
      line.substr(values_at + 10, line.find(']', values_at) - values_at - 10);
  std::vector<double> got;
  std::size_t pos = 0;
  while (pos < values.size()) {
    std::size_t comma = values.find(',', pos);
    if (comma == std::string::npos) comma = values.size();
    std::string item = values.substr(pos, comma - pos);
    got.push_back(item == "\"inf\""
                      ? std::numeric_limits<double>::infinity()
                      : std::stod(item));
    pos = comma + 1;
  }
  const NodeId echo[] = {0, 3, 4, 6, 7};
  ASSERT_EQ(got.size(), std::size(echo));
  for (std::size_t i = 0; i < std::size(echo); ++i) {
    const Weight want = golden[echo[i]];
    if (want >= kInfWeight) {
      EXPECT_TRUE(std::isinf(got[i])) << "node " << echo[i];
    } else {
      EXPECT_NEAR(got[i], static_cast<double>(want), 1e-6) << "node " << echo[i];
    }
  }
  server.stop();
}

TEST(ServeProtocol, BfsLevelsMatchHostBfs) {
  const Csr graph = small_graph();
  Server server(graph);
  server.start();
  auto client = connect_client(server);
  client->send(
      R"({"id":2,"op":"query","alg":"bfs","source":0,"nodes":[0,1,3,5,7]})");
  const std::string line = client->recv_or_die();
  EXPECT_TRUE(contains(line, R"("ok":true)")) << line;

  // BFS levels are small integers, which %.17g renders exactly; the
  // isolated vertex 7 renders as "inf".
  const std::vector<NodeId> levels = bfs_levels(graph, 0);
  std::string want = "\"values\":[";
  const NodeId echo[] = {0, 1, 3, 5, 7};
  for (std::size_t i = 0; i < std::size(echo); ++i) {
    if (i != 0) want += ",";
    want += levels[echo[i]] == kInvalidNode
                ? "\"inf\""
                : std::to_string(levels[echo[i]]);
  }
  want += "]";
  EXPECT_TRUE(contains(line, want)) << line << "\nwant " << want;
  server.stop();
}

TEST(ServeProtocol, PagerankDigestMatchesRunner) {
  const Csr graph = small_graph();
  Server server(graph);
  server.start();
  auto client = connect_client(server);
  client->send(R"({"id":3,"op":"query","alg":"pagerank","nodes":[0]})");
  const std::string line = client->recv_or_die();
  EXPECT_TRUE(contains(line, R"("ok":true)")) << line;
  EXPECT_TRUE(contains(line, R"("alg":"pagerank")")) << line;

  core::RunConfig rc;
  const core::RunOutput out = core::run_algorithm(core::Algorithm::PR, graph, rc);
  const std::string digest =
      hex64(fnv1a64(out.attr.data(), out.attr.size() * sizeof(double)));
  EXPECT_TRUE(contains(line, "\"digest\":\"" + digest + "\"")) << line;
  server.stop();
}

TEST(ServeProtocol, BcWithExplicitSources) {
  Server server(small_graph());
  server.start();
  auto client = connect_client(server);
  client->send(R"({"id":4,"op":"query","alg":"bc","sources":[0,1],"nodes":[2]})");
  const std::string line = client->recv_or_die();
  EXPECT_TRUE(contains(line, R"("ok":true)")) << line;
  EXPECT_TRUE(contains(line, R"("alg":"bc")")) << line;
  server.stop();
}

TEST(ServeProtocol, RepeatedQueryIsByteIdentical) {
  Server server(small_graph());
  server.start();
  auto client = connect_client(server);
  const std::string req =
      R"({"id":5,"op":"query","alg":"sssp","source":1,"nodes":[3,6]})";
  client->send(req);
  const std::string first = client->recv_or_die();
  client->send(req);
  EXPECT_EQ(client->recv_or_die(), first);
  server.stop();
}

TEST(ServeProtocol, StatsReportsActivity) {
  Server server(small_graph());
  server.start();
  auto client = connect_client(server);
  client->send(R"({"id":1,"op":"query","alg":"bfs","source":0})");
  client->recv_or_die();
  client->send(R"({"id":2,"op":"stats"})");
  const std::string line = client->recv_or_die();
  EXPECT_TRUE(contains(line, R"("op":"stats")")) << line;
  EXPECT_TRUE(contains(line, R"("queries_ok":1)")) << line;
  EXPECT_TRUE(contains(line, R"("units":1)")) << line;
  EXPECT_TRUE(contains(line, R"("snapshots":1)")) << line;
  server.stop();
}

// ---- Transforms + copy-on-write snapshots -------------------------------

TEST(ServeTransform, PublishesNewVariant) {
  Server server(small_graph());
  server.start();
  auto client = connect_client(server);
  client->send(
      R"({"id":1,"op":"transform","kind":"sparsify","name":"sp","drop_fraction":0.3})");
  const std::string pub = client->recv_or_die();
  EXPECT_TRUE(contains(pub, R"("ok":true)")) << pub;
  EXPECT_TRUE(contains(pub, R"("variant":"sp","version":2)")) << pub;

  client->send(R"({"id":2,"op":"query","alg":"bfs","source":0,"variant":"sp"})");
  const std::string q = client->recv_or_die();
  EXPECT_TRUE(contains(q, R"("variant":"sp","version":2)")) << q;

  // The base variant is untouched.
  client->send(R"({"id":3,"op":"query","alg":"bfs","source":0})");
  EXPECT_TRUE(contains(client->recv_or_die(), R"("variant":"base","version":1)"));
  server.stop();
}

TEST(ServeTransform, DivergenceVariantServesWithWarpOrder) {
  Server server(small_graph());
  server.start();
  auto client = connect_client(server);
  client->send(
      R"({"id":1,"op":"transform","kind":"divergence","name":"div","threshold":0.5})");
  EXPECT_TRUE(contains(client->recv_or_die(), R"("ok":true)"));
  // Divergence preserves slot ids, so the SSSP fixpoint — and its digest
  // over slot order — must be unchanged on the transformed variant.
  client->send(R"({"id":2,"op":"query","alg":"sssp","source":0,"variant":"div"})");
  const std::string on_div = client->recv_or_die();
  client->send(R"({"id":3,"op":"query","alg":"sssp","source":0})");
  const std::string on_base = client->recv_or_die();
  const auto digest_of = [](const std::string& line) {
    const std::size_t at = line.find("\"digest\":");
    return line.substr(at, line.find(',', at) - at);
  };
  EXPECT_EQ(digest_of(on_div), digest_of(on_base));
  server.stop();
}

// Satellite: snapshot isolation. Queries admitted before a transform run
// against the pre-transform snapshot (same bytes as before), and the
// superseded graph is freed once its last reader drains.
TEST(ServeSnapshot, InFlightQueriesSeeOldSnapshotThenItIsFreed) {
  Server server(small_graph());
  server.start();
  auto client = connect_client(server);

  const std::string req =
      R"({"id":1,"op":"query","alg":"sssp","source":0,"nodes":[3,6]})";
  client->send(req);
  const std::string golden = client->recv_or_die();  // against base v1

  std::weak_ptr<const GraphSnapshot> old_snap;
  {
    std::shared_ptr<const GraphSnapshot> pin = server.snapshot_for_test("base");
    ASSERT_NE(pin, nullptr);
    EXPECT_EQ(pin->version, 1U);
    old_snap = pin;
  }

  // Park the dispatcher, admit queries (snapshot resolved NOW), then
  // overwrite "base" while they sit in the queue.
  server.hold_dispatch_for_test(true);
  client->send(req);
  client->send(
      R"({"id":2,"op":"transform","kind":"sparsify","name":"base","drop_fraction":0.9,"seed":1})");
  const std::string pub = client->recv_or_die();  // transforms run inline
  EXPECT_TRUE(contains(pub, R"("variant":"base","version":2)")) << pub;
  EXPECT_FALSE(old_snap.expired()) << "queued query must pin the old snapshot";

  server.hold_dispatch_for_test(false);
  EXPECT_EQ(client->recv_or_die(), golden)
      << "admitted-before-transform query must answer from the old snapshot";

  // The old snapshot's last reader has drained; the wave vector is
  // destroyed asynchronously after the responses are written, so poll.
  bool freed = false;
  for (int i = 0; i < 200 && !freed; ++i) {
    freed = old_snap.expired();
    if (!freed) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(freed) << "superseded snapshot must be freed after drain";

  // New queries run against the new snapshot.
  client->send(req);
  const std::string after = client->recv_or_die();
  EXPECT_TRUE(contains(after, R"("version":2)")) << after;
  server.stop();
}

}  // namespace
}  // namespace graffix::serve
