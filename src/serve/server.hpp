// The `graffix serve` daemon core.
//
// Load + transform once, then serve many concurrent queries against the
// resident graph (ROADMAP "graph-as-a-service"). Architecture
// (DESIGN.md §10):
//
//   sessions (reader threads)  ->  bounded job queue  ->  dispatcher
//                                                          |  waves
//                                                 batcher (form_units)
//                                                          |
//                                        parallel_for_dynamic over
//                                        units on the persistent pool
//
// Control ops (stats, transform, ping, shutdown) execute inline on the
// reader thread — publishing a new copy-on-write snapshot is therefore
// genuinely concurrent with queries draining on the superseded one,
// which keeps serving while it has readers and is freed (shared_ptr)
// when the last drains. Query ops are enqueued with their snapshot
// resolved at admission, so a transform never retroactively changes an
// admitted query's input.
//
// Graceful degradation, never a crash: every fault (malformed frame,
// oversized payload, unknown variant, bad source, queue overflow,
// deadline expiry, draining) maps to a typed error response and the
// daemon keeps serving.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/csr.hpp"
#include "serve/batcher.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "util/histogram.hpp"
#include "util/timer.hpp"

namespace graffix::serve {

struct ServerConfig {
  /// Admission bound: queries beyond this depth get shed-load
  /// (`overloaded`) responses instead of unbounded memory growth.
  std::size_t queue_capacity = 1024;
  std::uint32_t max_batch_lanes = kMaxBatchLanes;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Applied to queries that carry no deadline_ms (0 = none).
  double default_deadline_ms = 0.0;
};

/// Point-in-time metrics snapshot (also rendered by the `stats` op).
struct ServerMetrics {
  std::uint64_t queries_ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed = 0;       // overload rejections (subset of errors)
  std::uint64_t control_ops = 0;
  std::uint64_t batches = 0;        // multi-lane units executed
  std::uint64_t batched_lanes = 0;  // lanes across those units
  std::uint64_t units = 0;          // all units (batched + singleton)
  std::uint64_t responses_dropped = 0;  // peer gone before the answer
  std::size_t queue_depth = 0;
  std::size_t queue_peak = 0;
  std::size_t snapshots = 0;       // live published variants
  std::size_t resident_bytes = 0;  // sum over live variants
  // Admission-to-answer latency over answered queries (delivered or
  // dropped), from a log-linear histogram: within 1/128 relative.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  std::map<std::string, std::uint64_t> errors_by_code;
};

class Server {
 public:
  /// Publishes `base_graph` as variant "base", version 1.
  explicit Server(Csr base_graph, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the dispatcher; idempotent.
  void start();

  /// Graceful shutdown: stop admitting, drain the queue (queued queries
  /// still get answers), then join every thread. Idempotent.
  void stop();

  /// Attaches a client over raw fds (ownership transferred); the reader
  /// runs on an internal thread joined by stop().
  std::shared_ptr<Session> serve_fds(int in_fd, int out_fd);

  /// Serves stdin/stdout on the calling thread until EOF or shutdown.
  void run_stdio();

  /// Listens on 127.0.0.1 (port 0 = ephemeral) and accepts clients on an
  /// internal thread. Returns the bound port, 0 on failure.
  std::uint16_t listen_tcp(std::uint16_t port);

  [[nodiscard]] ServerMetrics metrics() const;

  /// True once a `shutdown` request was accepted (the CLI exits its
  /// stdio loop on this).
  [[nodiscard]] bool shutdown_requested() const;

  /// Final stats line, rendered for the shutdown report.
  [[nodiscard]] std::string stats_json(std::uint64_t id) const;

  // Session upcalls.
  void handle_frame(const std::shared_ptr<Session>& session,
                    const std::string& line);
  void note_frame_too_long(const std::shared_ptr<Session>& session);

  // Test hooks ------------------------------------------------------------

  /// Parks the dispatcher so tests can fill the queue (overflow) or age
  /// requests past their deadlines deterministically.
  void hold_dispatch_for_test(bool hold);

  /// Live snapshot for a variant (nullptr when unknown). Tests keep
  /// weak_ptrs to assert the COW free-on-last-reader lifecycle.
  [[nodiscard]] std::shared_ptr<const GraphSnapshot> snapshot_for_test(
      const std::string& variant) const;

 private:
  struct Job {
    Request req;
    std::shared_ptr<const GraphSnapshot> snap;
    std::shared_ptr<Session> session;
    WallTimer age;        // started at admission
    double deadline_ms = 0.0;  // 0 = none
  };

  void dispatch_loop();
  void process_wave(std::vector<Job>& wave);
  void run_query_unit(const std::vector<Job*>& unit);
  void run_scalar_query(Job& job);  // pagerank / bc
  void handle_transform(const std::shared_ptr<Session>& session,
                        const Request& req);
  void handle_query(const std::shared_ptr<Session>& session, Request&& req);
  void respond_error(const std::shared_ptr<Session>& session,
                     std::uint64_t id, ErrorCode code,
                     std::string_view message);
  void respond_ok(Job& job, const std::string& line);
  [[nodiscard]] std::shared_ptr<const GraphSnapshot> find_snapshot(
      const std::string& variant) const;

  ServerConfig config_;

  // Snapshot registry (ordered map: deterministic stats iteration and no
  // unordered range-for, per DESIGN.md §7 / lint R2).
  mutable std::mutex registry_mutex_;
  std::map<std::string, std::shared_ptr<const GraphSnapshot>> registry_;
  std::uint64_t next_version_ = 1;

  // Bounded job queue.
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::vector<Job> queue_;
  bool hold_ = false;
  bool draining_ = false;  // no new admissions
  bool stopping_ = false;  // dispatcher exits once drained
  bool shutdown_requested_ = false;

  std::thread dispatcher_;
  bool started_ = false;
  bool stopped_ = false;
  std::mutex lifecycle_mutex_;

  // Sessions + their reader threads.
  std::mutex sessions_mutex_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::vector<std::thread> readers_;

  // TCP acceptor.
  int listen_fd_ = -1;
  std::thread acceptor_;

  // Metrics.
  mutable std::mutex metrics_mutex_;
  ServerMetrics counters_;  // latency percentiles filled on read
  LogLinearHistogram latency_ms_;  // admission to answer, every answered query
};

}  // namespace graffix::serve
