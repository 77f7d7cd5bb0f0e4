// Spans for the traced run.
//
// The benchmark records a span around each call it makes into a library
// layer: name, layer, start, end, parent span and thread. Spans stay in
// memory and are written out when the run ends. Nothing inside the
// library is instrumented, so engine and serve-internal phases are not
// visible here; they belong to a later in-program telemetry change.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0.0;  // seconds, steady clock
    double end = 0.0;
    int parent = -1;
    int thread = 0;
    /// A parallel phase: its children run concurrently on pool workers,
    /// so the blocking path takes the phase's whole wall instead of
    /// descending into them.
    bool parallel = false;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when tracing is off).
  int begin(std::string name, std::string layer, int parent,
            bool parallel = false);
  void end(int id);
  /// Records a span whose times were taken elsewhere (the serve client
  /// stamps due, send and answer times and records them afterwards).
  int record(std::string name, std::string layer, double start, double end,
             int parent);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Span duration minus the part of it covered by its children.
  [[nodiscard]] std::vector<double> self_times() const;

  /// Self time per layer along the blocking path under `root`: serial
  /// spans contribute their self time, a parallel phase its whole wall.
  /// The root's own self time (benchmark glue) is reported under its
  /// layer too.
  [[nodiscard]] std::map<std::string, double> blocking_path(int root) const;

  /// Writes the spans as Chrome trace-event JSON. False on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::string layer, int parent,
             bool parallel = false)
      : tracer_(tracer),
        id_(tracer.begin(std::move(name), std::move(layer), parent, parallel)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
