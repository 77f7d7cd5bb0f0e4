#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/runners.hpp"
#include "serve/protocol.hpp"
#include "transform/divergence.hpp"
#include "transform/sparsify.hpp"
#include "util/parallel.hpp"

namespace graffix::serve {

Server::Server(Csr base_graph, ServerConfig config) : config_(std::move(config)) {
  if (config_.max_batch_lanes == 0) config_.max_batch_lanes = 1;
  if (config_.max_batch_lanes > kMaxBatchLanes) {
    config_.max_batch_lanes = kMaxBatchLanes;
  }
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  registry_["base"] =
      make_snapshot("base", next_version_, std::move(base_graph), {});
}

Server::~Server() { stop(); }

void Server::start() {
  std::scoped_lock lk(lifecycle_mutex_);
  if (started_) return;
  started_ = true;
  // A client that disconnects mid-request must surface as a failed
  // write, not a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

void Server::stop() {
  {
    std::scoped_lock lk(lifecycle_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  {
    std::scoped_lock lk(queue_mutex_);
    draining_ = true;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  // The dispatcher drains everything already admitted — queued queries
  // still get their answers — then exits.
  if (dispatcher_.joinable()) dispatcher_.join();
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> readers;
  {
    std::scoped_lock lk(sessions_mutex_);
    for (const auto& s : sessions_) s->interrupt();
    readers.swap(readers_);
  }
  for (std::thread& t : readers) {
    if (t.joinable()) t.join();
  }
}

std::shared_ptr<Session> Server::serve_fds(int in_fd, int out_fd) {
  auto session =
      std::make_shared<Session>(*this, in_fd, out_fd, config_.max_frame_bytes);
  std::scoped_lock lk(sessions_mutex_);
  sessions_.push_back(session);
  readers_.emplace_back([session] { session->run_reader(); });
  return session;
}

void Server::run_stdio() {
  auto session = std::make_shared<Session>(*this, ::dup(0), ::dup(1),
                                           config_.max_frame_bytes);
  {
    std::scoped_lock lk(sessions_mutex_);
    sessions_.push_back(session);
  }
  session->run_reader(/*stop_on_shutdown=*/true);
}

std::uint16_t Server::listen_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return 0;
  }
  listen_fd_ = fd;
  acceptor_ = std::thread([this] {
    while (true) {
      const int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client < 0) {
        if (errno == EINTR) continue;
        return;  // listen fd shut down: stop()
      }
      serve_fds(client, client);
    }
  });
  return ntohs(addr.sin_port);
}

bool Server::shutdown_requested() const {
  std::scoped_lock lk(queue_mutex_);
  return shutdown_requested_;
}

void Server::hold_dispatch_for_test(bool hold) {
  {
    std::scoped_lock lk(queue_mutex_);
    hold_ = hold;
  }
  queue_cv_.notify_all();
}

std::shared_ptr<const GraphSnapshot> Server::snapshot_for_test(
    const std::string& variant) const {
  return find_snapshot(variant);
}

std::shared_ptr<const GraphSnapshot> Server::find_snapshot(
    const std::string& variant) const {
  std::scoped_lock lk(registry_mutex_);
  const auto it = registry_.find(variant);
  return it == registry_.end() ? nullptr : it->second;
}

// ---- Frame handling (reader threads) ------------------------------------

void Server::note_frame_too_long(const std::shared_ptr<Session>& session) {
  respond_error(session, 0, ErrorCode::FrameTooLarge,
                "frame exceeds max_frame_bytes");
}

void Server::handle_frame(const std::shared_ptr<Session>& session,
                          const std::string& line) {
  ParseResult parsed = parse_request(line);
  if (!parsed.ok) {
    respond_error(session, parsed.request.id, parsed.code, parsed.message);
    return;
  }
  Request& req = parsed.request;
  switch (req.op) {
    case Op::Ping: {
      {
        std::scoped_lock lk(metrics_mutex_);
        counters_.control_ops += 1;
      }
      JsonWriter w;
      w.field_u64("id", req.id);
      w.field_bool("ok", true);
      w.field_bool("pong", true);
      if (!session->send_line(w.finish())) {
        std::scoped_lock lk(metrics_mutex_);
        counters_.responses_dropped += 1;
      }
      return;
    }
    case Op::Stats: {
      {
        std::scoped_lock lk(metrics_mutex_);
        counters_.control_ops += 1;
      }
      if (!session->send_line(stats_json(req.id))) {
        std::scoped_lock lk(metrics_mutex_);
        counters_.responses_dropped += 1;
      }
      return;
    }
    case Op::Shutdown: {
      {
        std::scoped_lock lk(queue_mutex_);
        draining_ = true;
        shutdown_requested_ = true;
      }
      queue_cv_.notify_all();
      {
        std::scoped_lock lk(metrics_mutex_);
        counters_.control_ops += 1;
      }
      JsonWriter w;
      w.field_u64("id", req.id);
      w.field_bool("ok", true);
      w.field_bool("bye", true);
      if (!session->send_line(w.finish())) {
        std::scoped_lock lk(metrics_mutex_);
        counters_.responses_dropped += 1;
      }
      return;
    }
    case Op::Transform:
      handle_transform(session, req);
      return;
    case Op::Query:
      handle_query(session, std::move(req));
      return;
  }
}

void Server::handle_query(const std::shared_ptr<Session>& session,
                          Request&& req) {
  const std::shared_ptr<const GraphSnapshot> snap = find_snapshot(req.variant);
  if (snap == nullptr) {
    respond_error(session, req.id, ErrorCode::UnknownVariant,
                  "no snapshot named '" + req.variant + "'");
    return;
  }
  // Admission-time validation: everything past this point must be
  // runnable, because the runners GRAFFIX_CHECK-abort on bad input.
  const NodeId slots = snap->graph.num_slots();
  if (req.alg == QueryAlg::Sssp || req.alg == QueryAlg::Bfs) {
    if (req.source >= slots || snap->graph.is_hole(req.source)) {
      respond_error(session, req.id, ErrorCode::BadSource,
                    "source is out of range or a hole slot");
      return;
    }
  }
  if (req.alg == QueryAlg::Bc) {
    for (const NodeId s : req.sources) {
      if (s >= slots || snap->graph.is_hole(s)) {
        respond_error(session, req.id, ErrorCode::BadSource,
                      "bc source is out of range or a hole slot");
        return;
      }
    }
  }
  for (const NodeId n : req.nodes) {
    if (n >= slots) {
      respond_error(session, req.id, ErrorCode::BadSource,
                    "echo node is out of range");
      return;
    }
  }

  Job job;
  job.deadline_ms =
      req.deadline_ms > 0.0 ? req.deadline_ms : config_.default_deadline_ms;
  job.req = std::move(req);
  job.snap = snap;
  job.session = session;
  {
    std::scoped_lock lk(queue_mutex_);
    if (draining_ || stopping_) {
      respond_error(session, job.req.id, ErrorCode::ShuttingDown,
                    "daemon is draining");
      return;
    }
    if (queue_.size() >= config_.queue_capacity) {
      {
        std::scoped_lock mlk(metrics_mutex_);
        counters_.shed += 1;
      }
      respond_error(session, job.req.id, ErrorCode::Overloaded,
                    "job queue is full — retry later");
      return;
    }
    queue_.push_back(std::move(job));
    std::scoped_lock mlk(metrics_mutex_);
    counters_.queue_peak = std::max(counters_.queue_peak, queue_.size());
  }
  queue_cv_.notify_one();
}

void Server::handle_transform(const std::shared_ptr<Session>& session,
                              const Request& req) {
  const std::shared_ptr<const GraphSnapshot> src = find_snapshot(req.variant);
  if (src == nullptr) {
    respond_error(session, req.id, ErrorCode::UnknownVariant,
                  "no snapshot named '" + req.variant + "'");
    return;
  }
  Csr graph;
  std::vector<NodeId> warp_order;
  std::uint64_t edges_dropped = 0;
  std::uint64_t edges_added = 0;
  if (req.kind == "none") {
    graph = src->graph;
    warp_order = src->warp_order;
  } else if (req.kind == "sparsify") {
    transform::SparsifyKnobs knobs;
    knobs.drop_fraction = req.drop_fraction;
    knobs.seed = req.seed;
    transform::SparsifyResult result = transform::sparsify_transform(src->graph, knobs);
    graph = std::move(result.graph);
    edges_dropped = result.edges_dropped;
    // Slot ids are preserved but degrees changed; serve in slot order
    // rather than the source's stale warp order.
  } else {  // "divergence" — parse_request admits nothing else
    transform::DivergenceKnobs knobs;
    knobs.degree_sim_threshold = req.threshold;
    transform::DivergenceResult result =
        transform::divergence_transform(src->graph, knobs);
    graph = std::move(result.graph);
    warp_order = std::move(result.warp_order);
    edges_added = result.edges_added;
  }

  std::shared_ptr<const GraphSnapshot> snap;
  {
    std::scoped_lock lk(registry_mutex_);
    const std::uint64_t version = ++next_version_;
    snap = make_snapshot(req.name, version, std::move(graph),
                         std::move(warp_order));
    // Copy-on-write publish: the superseded snapshot stays alive for
    // exactly as long as admitted queries still hold it.
    registry_[req.name] = snap;
  }
  {
    std::scoped_lock lk(metrics_mutex_);
    counters_.control_ops += 1;
  }
  JsonWriter w;
  w.field_u64("id", req.id);
  w.field_bool("ok", true);
  w.field_string("op", "transform");
  w.field_string("variant", snap->variant);
  w.field_u64("version", snap->version);
  w.field_string("kind", req.kind);
  w.field_u64("nodes", snap->graph.num_nodes());
  w.field_u64("edges", snap->graph.num_edges());
  w.field_u64("edges_dropped", edges_dropped);
  w.field_u64("edges_added", edges_added);
  w.field_u64("resident_bytes", snap->resident_bytes());
  if (!session->send_line(w.finish())) {
    std::scoped_lock lk(metrics_mutex_);
    counters_.responses_dropped += 1;
  }
}

// ---- Dispatch (dispatcher thread + worker pool) -------------------------

void Server::dispatch_loop() {
  while (true) {
    std::vector<Job> wave;
    {
      std::unique_lock<std::mutex> lk(queue_mutex_);
      queue_cv_.wait(lk, [&] { return stopping_ || (!queue_.empty() && !hold_); });
      if (queue_.empty() && stopping_) return;
      wave.swap(queue_);
    }
    if (!wave.empty()) process_wave(wave);
  }
}

void Server::process_wave(std::vector<Job>& wave) {
  std::vector<const Request*> reqs;
  reqs.reserve(wave.size());
  for (const Job& job : wave) reqs.push_back(&job.req);
  const std::vector<std::vector<std::size_t>> unit_indices = form_units(
      reqs, [&](std::size_t i) { return static_cast<const void*>(wave[i].snap.get()); },
      config_.max_batch_lanes);
  std::vector<std::vector<Job*>> units(unit_indices.size());
  for (std::size_t u = 0; u < unit_indices.size(); ++u) {
    units[u].reserve(unit_indices[u].size());
    for (const std::size_t i : unit_indices[u]) units[u].push_back(&wave[i]);
  }
  // Units run concurrently on the persistent pool, one unit per task:
  // their costs range from one lane on a small frontier to a full batch
  // on a hub, so the grain is 1 (the default of 256 would run a whole
  // wave as one serial task). SSSP/BFS units run a serial frontier
  // kernel and the PR/BC runners' engine sweeps see one effective worker
  // and stay serial, so there is exactly one layer of parallelism —
  // across units, never within.
  // A throwing unit answers its own jobs instead of taking down the
  // daemon (or, worse, leaving their sessions waiting forever).
  parallel_for_dynamic(
      std::size_t{0}, units.size(),
      [&](std::size_t u) {
        try {
          run_query_unit(units[u]);
        } catch (const std::exception& e) {
          for (Job* job : units[u]) {
            respond_error(job->session, job->req.id, ErrorCode::Internal,
                          std::string("internal error: ") + e.what());
          }
        }
      },
      /*grain=*/1);
}

void Server::run_query_unit(const std::vector<Job*>& unit) {
  if (unit.empty()) return;
  const QueryAlg alg = unit.front()->req.alg;
  if (alg == QueryAlg::Pagerank || alg == QueryAlg::Bc) {
    run_scalar_query(*unit.front());
    return;
  }

  // Multi-source SSSP/BFS unit (K >= 1 lanes, one shared round
  // schedule). Requests already past their deadline are answered
  // without joining the batch.
  std::vector<Job*> live;
  // graffix-lint: allow(R6) per-unit staging list bounded by max_batch_lanes; pool workers have no arena of their own
  live.reserve(unit.size());
  for (Job* job : unit) {
    if (job->deadline_ms > 0.0 && job->age.millis() > job->deadline_ms) {
      respond_error(job->session, job->req.id, ErrorCode::DeadlineExpired,
                    "deadline expired before execution");
      continue;
    }
    // graffix-lint: allow(R6) append stays within the reserve above
    live.push_back(job);
  }
  if (live.empty()) return;

  std::vector<LaneSpec> lanes;
  // graffix-lint: allow(R6) per-unit lane specs bounded by max_batch_lanes; sized once per unit
  lanes.reserve(live.size());
  for (Job* job : live) {
    LaneSpec spec;
    spec.source = job->req.source;
    spec.echo_nodes = job->req.nodes;
    if (job->deadline_ms > 0.0) {
      spec.expired = [job] {
        return job->age.millis() > job->deadline_ms;
      };
    }
    // graffix-lint: allow(R6) append stays within the reserve above
    lanes.push_back(std::move(spec));
  }

  const GraphSnapshot& snap = *live.front()->snap;
  const MultiSourceOutcome outcome = run_multi_source(snap, alg, lanes);
  {
    std::scoped_lock lk(metrics_mutex_);
    counters_.units += 1;
    if (live.size() > 1) {
      counters_.batches += 1;
      counters_.batched_lanes += live.size();
    }
  }
  for (std::size_t k = 0; k < live.size(); ++k) {
    Job& job = *live[k];
    const LaneOutcome& lane = outcome.lanes[k];
    if (lane.expired) {
      respond_error(job.session, job.req.id, ErrorCode::DeadlineExpired,
                    "deadline expired mid-run");
      continue;
    }
    // Pure function of (request, snapshot) — no timing, no shared round
    // counters — so batched and serial renderings are byte-identical.
    JsonWriter w;
    w.field_u64("id", job.req.id);
    w.field_bool("ok", true);
    w.field_string("alg", query_alg_name(alg));
    w.field_string("variant", snap.variant);
    w.field_u64("version", snap.version);
    w.field_string("digest", hex64(lane.digest));
    w.field_u64("reached", lane.reached);
    w.field_u64("rounds", lane.rounds);
    w.open_array("values");
    for (const double v : lane.values) w.raw_item(format_double(v));
    w.close_array();
    respond_ok(job, w.finish());
  }
}

void Server::run_scalar_query(Job& job) {
  if (job.deadline_ms > 0.0 && job.age.millis() > job.deadline_ms) {
    respond_error(job.session, job.req.id, ErrorCode::DeadlineExpired,
                  "deadline expired before execution");
    return;
  }
  const GraphSnapshot& snap = *job.snap;
  core::RunConfig rc;
  rc.warp_order = snap.warp_order;
  rc.seed = job.req.seed;
  const core::Algorithm alg = job.req.alg == QueryAlg::Pagerank
                                  ? core::Algorithm::PR
                                  : core::Algorithm::BC;
  if (alg == core::Algorithm::BC) rc.bc_sources = job.req.sources;
  if (const char* problem = core::validate_run_config(alg, snap.graph, rc)) {
    respond_error(job.session, job.req.id, ErrorCode::BadRequest, problem);
    return;
  }
  const core::RunOutput out = core::run_algorithm(alg, snap.graph, rc);
  {
    std::scoped_lock lk(metrics_mutex_);
    counters_.units += 1;
  }
  JsonWriter w;
  w.field_u64("id", job.req.id);
  w.field_bool("ok", true);
  w.field_string("alg", query_alg_name(job.req.alg));
  w.field_string("variant", snap.variant);
  w.field_u64("version", snap.version);
  w.field_string("digest",
                 hex64(fnv1a64(out.attr.data(), out.attr.size() * sizeof(double))));
  w.field_u64("iterations", out.iterations);
  w.open_array("values");
  for (const NodeId n : job.req.nodes) {
    w.raw_item(format_double(out.attr.empty() ? 0.0 : out.attr[n]));
  }
  w.close_array();
  respond_ok(job, w.finish());
}

// ---- Responses + metrics ------------------------------------------------

// Each outcome is booked before its line is written: a client that reads
// its answer and then asks for `stats` must find that answer counted.

void Server::respond_error(const std::shared_ptr<Session>& session,
                           std::uint64_t id, ErrorCode code,
                           std::string_view message) {
  {
    std::scoped_lock lk(metrics_mutex_);
    counters_.errors += 1;
    counters_.errors_by_code[error_code_name(code)] += 1;
  }
  if (!session->send_line(render_error(id, code, message))) {
    std::scoped_lock lk(metrics_mutex_);
    counters_.responses_dropped += 1;
  }
}

void Server::respond_ok(Job& job, const std::string& line) {
  {
    std::scoped_lock lk(metrics_mutex_);
    counters_.queries_ok += 1;
    latency_ms_.record(job.age.millis());
  }
  if (!job.session->send_line(line)) {
    std::scoped_lock lk(metrics_mutex_);
    counters_.queries_ok -= 1;
    counters_.responses_dropped += 1;
  }
}

ServerMetrics Server::metrics() const {
  ServerMetrics m;
  LogLinearHistogram latency;
  {
    std::scoped_lock lk(metrics_mutex_);
    m = counters_;
    latency = latency_ms_;
  }
  m.p50_ms = latency.quantile(0.50);
  m.p95_ms = latency.quantile(0.95);
  m.p99_ms = latency.quantile(0.99);
  {
    std::scoped_lock lk(queue_mutex_);
    m.queue_depth = queue_.size();
  }
  {
    std::scoped_lock lk(registry_mutex_);
    m.snapshots = registry_.size();
    for (const auto& [name, snap] : registry_) {
      m.resident_bytes += snap->resident_bytes();
    }
  }
  return m;
}

std::string Server::stats_json(std::uint64_t id) const {
  const ServerMetrics m = metrics();
  JsonWriter w;
  w.field_u64("id", id);
  w.field_bool("ok", true);
  w.field_string("op", "stats");
  w.field_u64("queries_ok", m.queries_ok);
  w.field_u64("errors", m.errors);
  w.field_u64("shed", m.shed);
  w.field_u64("control_ops", m.control_ops);
  w.field_u64("units", m.units);
  w.field_u64("batches", m.batches);
  w.field_u64("batched_lanes", m.batched_lanes);
  w.field_u64("responses_dropped", m.responses_dropped);
  w.field_u64("queue_depth", m.queue_depth);
  w.field_u64("queue_peak", m.queue_peak);
  w.field_u64("snapshots", m.snapshots);
  w.field_u64("resident_bytes", m.resident_bytes);
  w.field_double("p50_ms", m.p50_ms);
  w.field_double("p95_ms", m.p95_ms);
  w.field_double("p99_ms", m.p99_ms);
  w.open_object("errors_by_code");
  for (const auto& [code, count] : m.errors_by_code) {
    // graffix-lint: allow(R7) keys are error_code_name() literals drawn from a std::map, so the emit order is the fixed lexicographic one
    w.field_u64(code, count);
  }
  w.close_object();
  return w.finish();
}

}  // namespace graffix::serve
