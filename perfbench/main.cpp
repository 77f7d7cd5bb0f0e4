// Command-line entry point of the Graffix end-to-end benchmark.
//
//   perfbench --workload grid|large-run|serve-read
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints a readable report, then as its last line one JSON object with
// "correct", "attempted", "failed" and "metrics": the end-to-end metrics
// with --trace 0, the per-layer metrics of a traced run with --trace 1.
// Exit codes: 0 ok, 1 an output check failed (the result line still
// prints), 2 bad arguments, 4 the run is invalid (for example its load
// generator fell behind); no result line is printed for 2 and 4.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "util/parallel.hpp"

namespace perfbench {

void Report::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Report::fail(std::uint64_t n, const std::string& why) {
  failed += n;
  correct = false;
  std::fprintf(stderr, "check failed (%llu operation(s)): %s\n",
               static_cast<unsigned long long>(n), why.c_str());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 != 0 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double mib(std::size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload grid|large-run|serve-read "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::string(value) != "0";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage(argv[0]);
    }
  }
  perfbench::Report (*run)(const perfbench::Options&) = nullptr;
  if (options.workload == "grid") run = perfbench::run_grid;
  if (options.workload == "large-run") run = perfbench::run_large;
  if (options.workload == "serve-read") run = perfbench::run_serve_read;
  if (run == nullptr || !(options.seconds > 0.0)) return usage(argv[0]);

  perfbench::Report report;
  try {
    report = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run invalid: %s\n", e.what());
    return 4;
  }

  std::printf("\n%s seed %llu, %g s, %s, pool width %d: %s, %llu attempted, %llu failed\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? "traced" : "untraced",
              graffix::effective_workers(), report.correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::string json = std::string("{\"correct\":") + (report.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(report.attempted) +
                     ",\"failed\":" + std::to_string(report.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      return 4;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i > 0 ? ",\"" : "\"") + m.name + "\":{\"value\":" + value + ",\"unit\":\"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
