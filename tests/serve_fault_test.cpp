// Fault-injection matrix for `graffix serve`: every injected fault —
// malformed frames, oversized payloads, bad sources, queue overflow,
// deadline expiry, mid-request disconnect, shutdown races — must produce
// a typed error response (or a counted drop) while the daemon keeps
// serving. Nothing here may crash, hang, or wedge the queue.
#include <gtest/gtest.h>

#include <chrono>
#include <iterator>
#include <memory>
#include <string>
#include <thread>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"

namespace graffix::serve {
namespace {

using graffix::serve::testing::LineClient;
using graffix::serve::testing::connect_client;

Csr tiny_graph() {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1.0F);
  b.add_edge(1, 2, 1.0F);
  b.add_edge(2, 3, 1.0F);
  return b.build();
}

bool has_error_code(const std::string& line, const char* code) {
  return line.find(std::string("\"code\":\"") + code + "\"") !=
         std::string::npos;
}

/// The liveness probe after every fault: the daemon must still answer.
void expect_still_serving(LineClient& client, std::uint64_t id) {
  client.send(R"({"id":)" + std::to_string(id) +
              R"(,"op":"query","alg":"bfs","source":0})");
  const std::string line = client.recv_or_die();
  EXPECT_NE(line.find(R"("ok":true)"), std::string::npos) << line;
}

TEST(ServeFault, MalformedFramesGetTypedErrors) {
  Server server(tiny_graph());
  server.start();
  auto client = connect_client(server);

  struct Fault {
    const char* frame;
    const char* code;
  };
  const Fault faults[] = {
      {"{this is not json", "parse_error"},
      {R"("just a string")", "parse_error"},
      {R"({"id":1,"op":"q"} trailing)", "parse_error"},
      {R"({"id":2,"op":"frobnicate"})", "unknown_op"},
      {R"({"id":3,"op":"query","alg":"apsp","source":0})", "unknown_algorithm"},
      {R"({"id":4,"op":"query","alg":"sssp"})", "bad_request"},
      {R"({"id":5,"op":"query","alg":"sssp","source":999})", "bad_source"},
      {R"({"id":6,"op":"query","alg":"bfs","source":0,"nodes":[99]})",
       "bad_source"},
      {R"({"id":7,"op":"query","alg":"bfs","source":0,"variant":"ghost"})",
       "unknown_variant"},
      {R"({"id":8,"op":"transform","kind":"latency"})", "bad_request"},
      {R"({"id":9,"op":"transform","kind":"none","variant":"ghost"})",
       "unknown_variant"},
  };
  std::uint64_t probe_id = 100;
  for (const Fault& fault : faults) {
    client->send(fault.frame);
    const std::string line = client->recv_or_die();
    EXPECT_TRUE(has_error_code(line, fault.code))
        << "frame: " << fault.frame << "\ngot:   " << line;
    expect_still_serving(*client, probe_id++);
  }

  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.errors, std::size(faults));
  EXPECT_EQ(m.queries_ok, std::size(faults));  // one probe per fault
  server.stop();
}

TEST(ServeFault, StatsCountEachAnswerBeforeTheClientReadsIt) {
  Server server(tiny_graph());
  server.start();
  auto client = connect_client(server);
  for (std::uint64_t i = 1; i <= 200; ++i) {
    client->send(R"({"id":)" + std::to_string(i) +
                 R"(,"op":"query","alg":"bfs","source":0})");
    client->recv_or_die();
    ASSERT_EQ(server.metrics().queries_ok, i);
  }
  server.stop();
}

TEST(ServeFault, OversizedFrameIsSheddedNotBuffered) {
  ServerConfig cfg;
  cfg.max_frame_bytes = 256;
  Server server(tiny_graph(), cfg);
  server.start();
  auto client = connect_client(server);

  // 4 KiB of garbage on one line: consumed and answered, never parsed.
  std::string big(4096, 'x');
  client->send(big);
  const std::string line = client->recv_or_die();
  EXPECT_TRUE(has_error_code(line, "frame_too_large")) << line;
  // The stream is re-synchronized at the newline: the next frame parses.
  expect_still_serving(*client, 1);
  server.stop();
}

TEST(ServeFault, QueueOverflowShedsLoadThenRecovers) {
  ServerConfig cfg;
  cfg.queue_capacity = 2;
  Server server(tiny_graph(), cfg);
  server.start();
  server.hold_dispatch_for_test(true);  // queue can only fill
  auto client = connect_client(server);

  client->send(R"({"id":1,"op":"query","alg":"bfs","source":0})");
  client->send(R"({"id":2,"op":"query","alg":"bfs","source":1})");
  client->send(R"({"id":3,"op":"query","alg":"bfs","source":2})");
  // Shed responses are written inline at admission, so it arrives first.
  const std::string shed = client->recv_or_die();
  EXPECT_EQ(LineClient::extract_id(shed), 3U);
  EXPECT_TRUE(has_error_code(shed, "overloaded")) << shed;

  // The admitted queries still complete once the dispatcher resumes.
  server.hold_dispatch_for_test(false);
  const auto ok = client->recv_by_id(2);
  ASSERT_EQ(ok.size(), 2U);
  EXPECT_NE(ok.at(1).find(R"("ok":true)"), std::string::npos);
  EXPECT_NE(ok.at(2).find(R"("ok":true)"), std::string::npos);

  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.shed, 1U);
  EXPECT_EQ(m.queue_peak, 2U);
  expect_still_serving(*client, 4);
  server.stop();
}

TEST(ServeFault, DeadlineExpiryIsTypedAndNonFatal) {
  Server server(tiny_graph());
  server.start();
  server.hold_dispatch_for_test(true);
  auto client = connect_client(server);

  // 1 ms deadline, then hold the queue well past it.
  client->send(
      R"({"id":1,"op":"query","alg":"sssp","source":0,"deadline_ms":1})");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.hold_dispatch_for_test(false);
  const std::string line = client->recv_or_die();
  EXPECT_TRUE(has_error_code(line, "deadline_expired")) << line;
  // A deadline generous enough to actually run is honored.
  client->send(
      R"({"id":2,"op":"query","alg":"sssp","source":0,"deadline_ms":60000})");
  const std::string ok = client->recv_or_die();
  EXPECT_NE(ok.find(R"("ok":true)"), std::string::npos) << ok;
  server.stop();
}

TEST(ServeFault, MidRequestDisconnectIsCountedNotFatal) {
  Server server(tiny_graph());
  server.start();
  server.hold_dispatch_for_test(true);
  auto doomed = connect_client(server);
  doomed->send(R"({"id":1,"op":"query","alg":"bfs","source":0})");
  // The client vanishes while its query is still queued; the write of
  // the response must fail quietly (SIGPIPE ignored) and be counted.
  doomed->close_all();
  server.hold_dispatch_for_test(false);

  bool dropped = false;
  for (int i = 0; i < 200 && !dropped; ++i) {
    dropped = server.metrics().responses_dropped >= 1;
    if (!dropped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(dropped) << "undeliverable response must be counted as dropped";

  // A fresh client is served as if nothing happened.
  auto client = connect_client(server);
  expect_still_serving(*client, 2);
  server.stop();
}

TEST(ServeFault, ShutdownDrainsThenRefusesNewWork) {
  Server server(tiny_graph());
  server.start();
  auto client = connect_client(server);

  client->send(R"({"id":1,"op":"shutdown"})");
  EXPECT_EQ(client->recv_or_die(), R"({"id":1,"ok":true,"bye":true})");
  EXPECT_TRUE(server.shutdown_requested());

  // Post-shutdown queries are refused with a typed error, not ignored.
  client->send(R"({"id":2,"op":"query","alg":"bfs","source":0})");
  const std::string line = client->recv_or_die();
  EXPECT_TRUE(has_error_code(line, "shutting_down")) << line;
  server.stop();
}

TEST(ServeFault, StatsKeepsPerCodeTallies) {
  Server server(tiny_graph());
  server.start();
  auto client = connect_client(server);
  client->send("{bad");
  client->recv_or_die();
  client->send("{worse");
  client->recv_or_die();
  client->send(R"({"id":1,"op":"query","alg":"bfs","source":77})");
  client->recv_or_die();

  client->send(R"({"id":2,"op":"stats"})");
  const std::string stats = client->recv_or_die();
  EXPECT_NE(stats.find(R"("parse_error":2)"), std::string::npos) << stats;
  EXPECT_NE(stats.find(R"("bad_source":1)"), std::string::npos) << stats;

  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.errors_by_code.at("parse_error"), 2U);
  EXPECT_EQ(m.errors_by_code.at("bad_source"), 1U);
  server.stop();
}

}  // namespace
}  // namespace graffix::serve
