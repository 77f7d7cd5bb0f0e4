#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <utility>

#include "bench.hpp"

namespace perfbench {

namespace {

int this_thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

std::vector<std::vector<int>> children_of(const std::vector<Tracer::Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0) children[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
  }
  return children;
}

}  // namespace

int Tracer::begin(std::string name, std::string layer, int parent, bool parallel) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.parent = parent;
  span.thread = this_thread_index();
  span.parallel = parallel;
  span.start = now_s();
  std::scoped_lock lk(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

int Tracer::record(std::string name, std::string layer, double start, double end,
                   int parent) {
  if (!enabled_) return -1;
  const int id = begin(std::move(name), std::move(layer), parent);
  std::scoped_lock lk(mutex_);
  spans_[static_cast<std::size_t>(id)].start = start;
  spans_[static_cast<std::size_t>(id)].end = end;
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double t = now_s();
  std::scoped_lock lk(mutex_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::scoped_lock lk(mutex_);
  return spans_;
}

std::vector<double> Tracer::self_times() const {
  const std::vector<Span> spans = this->spans();
  const auto children = children_of(spans);
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>> cover;
    for (const int c : children[i]) {
      const Span& k = spans[static_cast<std::size_t>(c)];
      const double lo = std::max(k.start, s.start);
      const double hi = std::min(k.end, s.end);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [lo, hi] : cover) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

std::map<std::string, double> Tracer::blocking_path(int root) const {
  std::map<std::string, double> out;
  if (root < 0) return out;
  const std::vector<Span> spans = this->spans();
  const auto children = children_of(spans);
  const std::vector<double> self = self_times();
  std::function<void(int)> walk = [&](int id) {
    const Span& s = spans[static_cast<std::size_t>(id)];
    if (s.parallel) {
      out[s.layer] += s.end - s.start;
      return;
    }
    out[s.layer] += self[static_cast<std::size_t>(id)];
    for (const int c : children[static_cast<std::size_t>(id)]) walk(c);
  };
  walk(root);
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> spans = this->spans();
  const double origin = spans.empty() ? 0.0 : spans.front().start;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}%s\n",
                 s.name.c_str(), s.layer.c_str(), (s.start - origin) * 1e6,
                 (s.end - s.start) * 1e6, s.thread, i, s.parent,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
