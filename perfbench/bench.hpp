// Shared pieces of the end-to-end benchmark: options, the per-run report,
// order statistics, and the workload entry points.
//
// Every workload drives the library only through its public headers. A
// workload returns a Report; main.cpp prints it as the one-line JSON
// result that perfbench/run.py reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace JSON); empty = none.
  std::string trace_out;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  /// Sets (or overwrites) one metric.
  void set(const std::string& name, double value, const std::string& unit);
  /// Counts `n` failed operations and prints why to stderr.
  void fail(std::uint64_t n, const std::string& why);
};

/// Nearest-rank quantile (the serve daemon's own rule): element
/// floor(q * n) of the sorted values, clamped. 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Middle value; the mean of the two middle values for an even count.
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mib(std::size_t bytes);

/// Seconds since an arbitrary fixed origin (steady clock).
[[nodiscard]] double now_s();

/// Untimed set-up time before the timed set-ups of a run. On a virtual
/// machine whose cores sat idle, parallel work in a fresh process runs at
/// close to single-thread speed for its first second or two (a scale-13
/// graph build took 0.09 s instead of 0.045 s), so set-ups timed at once
/// would measure how long the machine took to wake up.
inline constexpr double kWarmUpS = 2.0;

/// Calls `set_up` untimed until kWarmUpS seconds have passed.
template <typename SetUp>
void warm_up(SetUp&& set_up) {
  const double start = now_s();
  while (now_s() - start < kWarmUpS) set_up();
}

Report run_grid(const Options& options);
Report run_large(const Options& options);
Report run_serve_read(const Options& options);

}  // namespace perfbench
