// Batching contract for `graffix serve`: multi-source units produce
// byte-identical responses to per-query serial execution, at every
// thread count, under arbitrary client interleavings. Labeled `parallel`
// so the TSan shard exercises the concurrent paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "serve/batcher.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"
#include "transform/divergence.hpp"
#include "transform/sparsify.hpp"
#include "util/parallel.hpp"

namespace graffix::serve {
namespace {

using graffix::serve::testing::LineClient;
using graffix::serve::testing::connect_client;

constexpr int kThreadCounts[] = {1, 2, 8};

Csr bench_graph() { return make_preset(GraphPreset::LiveJournal, 8, 7); }

// ---- form_units ---------------------------------------------------------

TEST(ServeBatcher, GroupsCompatibleQueriesPreservingArrival) {
  std::vector<Request> reqs(6);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].op = Op::Query;
    reqs[i].alg = QueryAlg::Sssp;
    reqs[i].id = i;
  }
  reqs[2].alg = QueryAlg::Bfs;       // different alg: its own unit
  reqs[4].alg = QueryAlg::Pagerank;  // not batchable: singleton
  std::vector<const Request*> wave;
  for (const Request& r : reqs) wave.push_back(&r);

  const int snap_a = 0;
  const auto units = form_units(
      wave, [&](std::size_t) { return static_cast<const void*>(&snap_a); }, 32);
  // sssp{0,1,3,5}, bfs{2}, pr{4} — leaders in arrival order.
  ASSERT_EQ(units.size(), 3U);
  EXPECT_EQ(units[0], (std::vector<std::size_t>{0, 1, 3, 5}));
  EXPECT_EQ(units[1], (std::vector<std::size_t>{2}));
  EXPECT_EQ(units[2], (std::vector<std::size_t>{4}));
}

TEST(ServeBatcher, SplitsOnSnapshotAndLaneCap) {
  std::vector<Request> reqs(5);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].op = Op::Query;
    reqs[i].alg = QueryAlg::Sssp;
  }
  const int snap_a = 0;
  const int snap_b = 1;
  const auto units = form_units(
      std::vector<const Request*>{&reqs[0], &reqs[1], &reqs[2], &reqs[3],
                                  &reqs[4]},
      [&](std::size_t i) {
        return static_cast<const void*>(i == 2 ? &snap_b : &snap_a);
      },
      2);  // lane cap 2
  // a{0,1}, b{2}, a{3,4} — the cap closes a unit, a new one opens.
  ASSERT_EQ(units.size(), 3U);
  EXPECT_EQ(units[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(units[1], (std::vector<std::size_t>{2}));
  EXPECT_EQ(units[2], (std::vector<std::size_t>{3, 4}));
}

// ---- Executor-level differential ----------------------------------------

TEST(ServeBatch, MultiSourceEqualsPerLaneSerialAtEveryThreadCount) {
  const auto snap = make_snapshot("base", 1, bench_graph(), {});
  const NodeId sources[] = {0, 1, 5, 9, 17, 33, 64, 100};
  const std::vector<NodeId> echo = {0, 2, 50, 111};

  for (const QueryAlg alg : {QueryAlg::Sssp, QueryAlg::Bfs}) {
    // Serial goldens: one lane per run, hardware-default threads.
    std::vector<LaneOutcome> golden;
    for (const NodeId s : sources) {
      LaneSpec lane;
      lane.source = s;
      lane.echo_nodes = echo;
      const MultiSourceOutcome one = run_multi_source(*snap, alg, {&lane, 1});
      golden.push_back(one.lanes.front());
    }

    for (const int threads : kThreadCounts) {
      ScopedNumThreads pin(threads);
      std::vector<LaneSpec> lanes;
      for (const NodeId s : sources) {
        LaneSpec lane;
        lane.source = s;
        lane.echo_nodes = echo;
        lanes.push_back(std::move(lane));
      }
      const MultiSourceOutcome batched = run_multi_source(*snap, alg, lanes);
      ASSERT_EQ(batched.lanes.size(), golden.size());
      for (std::size_t k = 0; k < golden.size(); ++k) {
        EXPECT_EQ(batched.lanes[k].digest, golden[k].digest)
            << "alg " << query_alg_name(alg) << " lane " << k << " threads "
            << threads;
        EXPECT_EQ(batched.lanes[k].reached, golden[k].reached);
        EXPECT_EQ(batched.lanes[k].rounds, golden[k].rounds);
        EXPECT_EQ(batched.lanes[k].values, golden[k].values);
      }
    }
  }
}

// ---- Frontier kernel vs full-sweep oracle --------------------------------

/// The full-sweep Bellman-Ford the frontier kernel replaced: every round
/// relaxes every vertex that is finite in an active lane, in the
/// snapshot's processing order, then copies the whole plane.
MultiSourceOutcome full_sweep_oracle(const GraphSnapshot& snap, QueryAlg alg,
                                     std::span<const LaneSpec> lanes) {
  const Csr& g = snap.graph;
  const std::size_t lane_count = lanes.size();
  const std::size_t slots = g.num_slots();
  std::vector<NodeId> order = snap.warp_order;
  if (order.empty()) {
    for (NodeId s = 0; s < slots; ++s) {
      if (!g.is_hole(s)) order.push_back(s);
    }
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(slots * lane_count, kInf);
  for (std::size_t k = 0; k < lane_count; ++k) {
    dist[lanes[k].source * lane_count + k] = 0.0;
  }
  std::vector<double> next = dist;
  std::vector<bool> active(lane_count, true);
  std::vector<std::uint32_t> last_round(lane_count, 0);
  MultiSourceOutcome out;
  out.lanes.resize(lane_count);

  std::uint32_t round = 0;
  while (round < slots + 2) {
    bool any_active = false;
    for (std::size_t k = 0; k < lane_count; ++k) {
      if (active[k] && lanes[k].expired && lanes[k].expired()) {
        active[k] = false;
        out.lanes[k].expired = true;
      }
      any_active = any_active || active[k];
    }
    if (!any_active) break;
    ++round;
    std::vector<bool> changed(lane_count, false);
    for (const NodeId u : order) {
      for (EdgeId e = g.edge_begin(u); e < g.edge_end(u); ++e) {
        const NodeId v = g.targets()[e];
        const double step = alg == QueryAlg::Sssp && g.has_weights()
                                ? static_cast<double>(g.weights()[e])
                                : 1.0;
        for (std::size_t k = 0; k < lane_count; ++k) {
          const double d = dist[u * lane_count + k];
          if (!active[k] || !std::isfinite(d)) continue;
          if (d + step < next[v * lane_count + k]) {
            next[v * lane_count + k] = d + step;
            changed[k] = true;
          }
        }
      }
    }
    bool any_change = false;
    for (std::size_t k = 0; k < lane_count; ++k) {
      if (changed[k]) last_round[k] = round;
      any_change = any_change || changed[k];
    }
    if (!any_change) break;
    dist = next;
  }

  for (std::size_t k = 0; k < lane_count; ++k) {
    LaneOutcome& lane = out.lanes[k];
    lane.rounds = last_round[k];
    lane.digest = fnv1a64(nullptr, 0);
    for (std::size_t s = 0; s < slots; ++s) {
      const double d = dist[s * lane_count + k];
      lane.digest = fnv1a64_append(lane.digest, &d, sizeof d);
      if (std::isfinite(d)) ++lane.reached;
    }
    for (const NodeId n : lanes[k].echo_nodes) {
      lane.values.push_back(dist[n * lane_count + k]);
    }
  }
  return out;
}

/// Serving shapes: a power-law graph, a road grid (many rounds), a
/// divergence snapshot (non-empty warp order, inserted edges) and a
/// sparsify snapshot.
std::vector<std::shared_ptr<const GraphSnapshot>> oracle_snapshots() {
  std::vector<std::shared_ptr<const GraphSnapshot>> snaps;
  snaps.push_back(make_snapshot(
      "lj", 1, make_preset(GraphPreset::LiveJournal, 9, 7), {}));
  snaps.push_back(make_snapshot(
      "road", 1, make_preset(GraphPreset::UsaRoad, 10, 7), {}));
  transform::DivergenceKnobs div;
  div.degree_sim_threshold = 0.3;
  transform::DivergenceResult d = transform::divergence_transform(
      make_preset(GraphPreset::LiveJournal, 9, 7), div);
  EXPECT_FALSE(d.warp_order.empty());
  snaps.push_back(make_snapshot("div", 2, std::move(d.graph),
                                std::move(d.warp_order)));
  transform::SparsifyKnobs sp;
  sp.drop_fraction = 0.2;
  transform::SparsifyResult r = transform::sparsify_transform(
      make_preset(GraphPreset::LiveJournal, 9, 7), sp);
  snaps.push_back(make_snapshot("sp", 2, std::move(r.graph), {}));
  return snaps;
}

void expect_same_lanes(const MultiSourceOutcome& got,
                       const MultiSourceOutcome& want, const std::string& what) {
  ASSERT_EQ(got.lanes.size(), want.lanes.size()) << what;
  for (std::size_t k = 0; k < want.lanes.size(); ++k) {
    const LaneOutcome& g = got.lanes[k];
    const LaneOutcome& w = want.lanes[k];
    EXPECT_EQ(g.digest, w.digest) << what << " lane " << k;
    EXPECT_EQ(g.reached, w.reached) << what << " lane " << k;
    EXPECT_EQ(g.rounds, w.rounds) << what << " lane " << k;
    EXPECT_EQ(g.values, w.values) << what << " lane " << k;
    EXPECT_EQ(g.expired, w.expired) << what << " lane " << k;
  }
}

TEST(ServeBatch, FrontierKernelMatchesFullSweepOracle) {
  for (const auto& snap : oracle_snapshots()) {
    const NodeId slots = snap->graph.num_slots();
    const std::vector<NodeId> echo = {0, slots / 2, slots - 1};
    for (const QueryAlg alg : {QueryAlg::Sssp, QueryAlg::Bfs}) {
      for (const std::size_t lane_count : {1, 2, 31, 32}) {
        std::vector<LaneSpec> lanes(lane_count);
        for (std::size_t k = 0; k < lane_count; ++k) {
          lanes[k].source = static_cast<NodeId>((k * 7919 + 13) % slots);
          lanes[k].echo_nodes = echo;
        }
        expect_same_lanes(run_multi_source(*snap, alg, lanes),
                          full_sweep_oracle(*snap, alg, lanes),
                          snap->variant + " " + query_alg_name(alg) + " K=" +
                              std::to_string(lane_count));
      }
    }
  }
}

TEST(ServeBatch, FrontierKernelMatchesOracleOnDuplicatesAndExpiry) {
  for (const auto& snap : oracle_snapshots()) {
    const NodeId slots = snap->graph.num_slots();
    const std::vector<NodeId> echo = {0, 5, slots - 1};
    for (const QueryAlg alg : {QueryAlg::Sssp, QueryAlg::Bfs}) {
      // Each run polls its own counter, so both see the same deadlines.
      auto unit = [&](int& polls) {
        std::vector<LaneSpec> lanes(5);
        for (LaneSpec& lane : lanes) {
          lane.source = 5;  // lanes 0, 1 and 4 share a source
          lane.echo_nodes = echo;
        }
        lanes[2].source = slots / 3;
        lanes[2].expired = [] { return true; };  // expired before round 1
        lanes[3].source = slots / 2;
        lanes[3].expired = [&polls] { return ++polls > 3; };  // after round 3
        return lanes;
      };
      int kernel_polls = 0;
      int oracle_polls = 0;
      const std::vector<LaneSpec> kernel_lanes = unit(kernel_polls);
      const std::vector<LaneSpec> oracle_lanes = unit(oracle_polls);
      const MultiSourceOutcome got = run_multi_source(*snap, alg, kernel_lanes);
      const std::string what = snap->variant + " " + query_alg_name(alg);
      expect_same_lanes(got, full_sweep_oracle(*snap, alg, oracle_lanes), what);
      EXPECT_EQ(kernel_polls, oracle_polls) << what;
      EXPECT_TRUE(got.lanes[2].expired) << what;
      EXPECT_EQ(got.lanes[2].reached, 1U) << what;
      EXPECT_TRUE(got.lanes[3].expired) << what;
      EXPECT_LE(got.lanes[3].rounds, 3U) << what;
      EXPECT_EQ(got.lanes[1].digest, got.lanes[0].digest) << what;
      EXPECT_EQ(got.lanes[4].digest, got.lanes[0].digest) << what;
    }
  }
}

// A graph file may carry non-finite weights: a value that becomes -inf
// must not push on (the full sweep relaxes finite values only), and NaN
// or +inf steps never improve anything. Lanes past the third start at
// sink 5, so with K = 8 and 32 the -inf vertex is marked in few lanes and
// relaxed lane by lane; with K <= 2 it takes the all-lanes pass.
TEST(ServeBatch, FrontierKernelMatchesOracleOnNonFiniteWeights) {
  constexpr float kInfW = std::numeric_limits<float>::infinity();
  GraphBuilder b(6);
  b.set_weighted(true);
  b.add_edge(0, 1, 1.0F);
  b.add_edge(1, 2, -kInfW);
  b.add_edge(2, 3, 1.0F);
  b.add_edge(0, 3, 5.0F);
  b.add_edge(3, 4, std::numeric_limits<float>::quiet_NaN());
  b.add_edge(1, 4, kInfW);
  b.add_edge(4, 5, 1.0F);
  b.add_edge(0, 5, 9.0F);
  const auto snap = make_snapshot("nonfinite", 1, b.build(), {});
  const std::vector<NodeId> echo = {0, 1, 2, 3, 4, 5};
  for (const std::size_t lane_count : {1, 2, 8, 32}) {
    std::vector<LaneSpec> lanes(lane_count);
    for (std::size_t k = 0; k < lane_count; ++k) {
      lanes[k].source = static_cast<NodeId>(k < 3 ? k : 5);
      lanes[k].echo_nodes = echo;
    }
    expect_same_lanes(run_multi_source(*snap, QueryAlg::Sssp, lanes),
                      full_sweep_oracle(*snap, QueryAlg::Sssp, lanes),
                      "non-finite K=" + std::to_string(lane_count));
  }
}

// Single-lane answers recorded from the full-sweep engine implementation
// (make_preset seed 7); responses render these fields verbatim.
TEST(ServeBatch, SingleLaneAnswersMatchRecordedGoldens) {
  struct Golden {
    GraphPreset preset;
    std::uint32_t scale;
    NodeId source;
    QueryAlg alg;
    std::uint64_t digest;
    NodeId reached;
    std::uint32_t rounds;
  };
  const Golden goldens[] = {
      {GraphPreset::LiveJournal, 8, 0, QueryAlg::Sssp, 0xd0a4111ac70cbc8dULL, 239, 7},
      {GraphPreset::LiveJournal, 8, 0, QueryAlg::Bfs, 0x7bd749c2c118cb28ULL, 239, 4},
      {GraphPreset::LiveJournal, 8, 17, QueryAlg::Sssp, 0x42aec6a0224ebeb2ULL, 239, 10},
      {GraphPreset::LiveJournal, 8, 17, QueryAlg::Bfs, 0xb4cd5153bef038d5ULL, 239, 4},
      {GraphPreset::LiveJournal, 8, 100, QueryAlg::Sssp, 0x77c19f43e2a02a3cULL, 239, 9},
      {GraphPreset::LiveJournal, 8, 100, QueryAlg::Bfs, 0x98ba26b3f37e1bc8ULL, 239, 4},
      {GraphPreset::LiveJournal, 8, 201, QueryAlg::Sssp, 0x8f07635deefaab81ULL, 239, 10},
      {GraphPreset::LiveJournal, 8, 201, QueryAlg::Bfs, 0x81a36d788817a4c8ULL, 239, 4},
      {GraphPreset::UsaRoad, 10, 0, QueryAlg::Sssp, 0xd370d07dd7b32156ULL, 1024, 47},
      {GraphPreset::UsaRoad, 10, 0, QueryAlg::Bfs, 0x14341e8d3f7732d3ULL, 1024, 42},
      {GraphPreset::UsaRoad, 10, 345, QueryAlg::Sssp, 0xc9ad22ad656fdd5cULL, 1024, 56},
      {GraphPreset::UsaRoad, 10, 345, QueryAlg::Bfs, 0x99f3b789811a24b5ULL, 1024, 48},
      {GraphPreset::UsaRoad, 10, 511, QueryAlg::Sssp, 0x5081ed32610aef4fULL, 1024, 38},
      {GraphPreset::UsaRoad, 10, 511, QueryAlg::Bfs, 0x97f7fc43f21d4a11ULL, 1024, 36},
      {GraphPreset::UsaRoad, 10, 1000, QueryAlg::Sssp, 0x23ad959188d0da86ULL, 1024, 51},
      {GraphPreset::UsaRoad, 10, 1000, QueryAlg::Bfs, 0xf2f055d6b285f7f1ULL, 1024, 49},
  };
  const auto lj = make_snapshot("lj", 1, make_preset(GraphPreset::LiveJournal, 8, 7), {});
  const auto road = make_snapshot("road", 1, make_preset(GraphPreset::UsaRoad, 10, 7), {});
  for (const Golden& g : goldens) {
    LaneSpec lane;
    lane.source = g.source;
    const GraphSnapshot& snap = g.preset == GraphPreset::LiveJournal ? *lj : *road;
    const LaneOutcome out = run_multi_source(snap, g.alg, {&lane, 1}).lanes.front();
    const std::string what = std::string(preset_name(g.preset)) + " source " +
                             std::to_string(g.source) + " " + query_alg_name(g.alg);
    EXPECT_EQ(hex64(out.digest), hex64(g.digest)) << what;
    EXPECT_EQ(out.reached, g.reached) << what;
    EXPECT_EQ(out.rounds, g.rounds) << what;
  }
}

// ---- Server-level differential ------------------------------------------

std::vector<std::string> query_frames() {
  const NodeId sources[] = {0, 1, 5, 9, 17, 33, 64, 100};
  std::vector<std::string> frames;
  for (std::size_t i = 0; i < std::size(sources); ++i) {
    frames.push_back(
        R"({"id":)" + std::to_string(i + 1) +
        R"(,"op":"query","alg":)" + (i % 2 == 0 ? R"("sssp")" : R"("bfs")") +
        R"(,"source":)" + std::to_string(sources[i]) + R"(,"nodes":[0,2,50]})");
  }
  return frames;
}

/// One query at a time against a lanes=1 server: the serial baseline.
std::map<std::uint64_t, std::string> serial_baseline(const Csr& graph) {
  ServerConfig cfg;
  cfg.max_batch_lanes = 1;
  Server server(graph, cfg);
  server.start();
  auto client = connect_client(server);
  std::map<std::uint64_t, std::string> out;
  for (const std::string& frame : query_frames()) {
    client->send(frame);
    const std::string line = client->recv_or_die();
    out[LineClient::extract_id(line)] = line;
  }
  server.stop();
  return out;
}

TEST(ServeBatch, BatchedServerMatchesSerialByteForByte) {
  const Csr graph = bench_graph();
  const auto golden = serial_baseline(graph);
  ASSERT_EQ(golden.size(), 8U);

  for (const int threads : kThreadCounts) {
    ScopedNumThreads pin(threads);
    ServerConfig cfg;
    cfg.max_batch_lanes = 8;
    Server server(graph, cfg);
    server.start();
    // Park the dispatcher so all 8 arrive in ONE wave — batching is then
    // guaranteed, not scheduling-dependent.
    server.hold_dispatch_for_test(true);
    auto client = connect_client(server);
    for (const std::string& frame : query_frames()) client->send(frame);
    server.hold_dispatch_for_test(false);
    const auto got = client->recv_by_id(8);
    EXPECT_EQ(got, golden) << "threads " << threads;
    const ServerMetrics m = server.metrics();
    EXPECT_GE(m.batches, 1U) << "wave must actually have batched";
    EXPECT_GE(m.batched_lanes, 4U);
    server.stop();
  }
}

// Satellite: randomized interleaving stress. N concurrent clients send a
// shuffled query mix; every response must be byte-identical to the serial
// baseline regardless of arrival order, wave composition, or thread count.
TEST(ServeBatch, RandomInterleavingsMatchSerial) {
  const Csr graph = bench_graph();
  const auto golden = serial_baseline(graph);

  constexpr int kClients = 8;
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    ServerConfig cfg;
    cfg.max_batch_lanes = 8;
    Server server(graph, cfg);
    server.start();

    std::vector<std::unique_ptr<LineClient>> clients;
    for (int c = 0; c < kClients; ++c) clients.push_back(connect_client(server));

    std::vector<std::thread> threads;
    std::vector<std::map<std::uint64_t, std::string>> received(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        // Deterministic per-thread shuffle; the OS scheduler supplies the
        // actual interleaving nondeterminism.
        std::vector<std::string> frames = query_frames();
        std::mt19937 rng(static_cast<std::uint32_t>(round * kClients + c));
        std::shuffle(frames.begin(), frames.end(), rng);
        for (const std::string& frame : frames) clients[c]->send(frame);
        received[c] = clients[c]->recv_by_id(frames.size());
      });
    }
    for (std::thread& t : threads) t.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(received[c], golden) << "round " << round << " client " << c;
    }
    server.stop();
  }
}

}  // namespace
}  // namespace graffix::serve
