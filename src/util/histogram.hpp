// Fixed-memory log-linear histogram (HdrHistogram-style).
//
// Each power of two [2^e, 2^(e+1)) inside the tracked range is split into
// kSubBuckets equal-width linear buckets, so a bucket is never wider than
// 1/kSubBuckets of any value it holds. Memory is one fixed array of
// counts whatever the number of samples, and record() is O(1). Merging
// adds integer counts, so a histogram merged from per-thread parts is
// identical in any merge order (DESIGN.md §7) — the shape a metrics
// registry accumulating thread-locally needs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace graffix {

class LogLinearHistogram {
 public:
  /// Linear buckets per power of two: relative bucket width <= 1/64.
  static constexpr int kSubBuckets = 64;
  /// Tracked range [2^kMinExp, 2^kMaxExp) in the caller's unit. Smaller
  /// values (zero, negatives, NaN) share one underflow bucket; larger
  /// ones land in the top bucket.
  static constexpr int kMinExp = -16;
  static constexpr int kMaxExp = 32;
  static constexpr std::size_t kBuckets =
      1 + static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;

  void record(double value);
  void merge(const LogLinearHistogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Nearest-rank quantile, q in [0, 1]: the smallest or largest sample
  /// for the first or last rank, otherwise the midpoint of the bucket that
  /// holds the ceil(q * count)-th smallest sample, clamped to those two.
  /// Inside the tracked range it is within 1/(2 * kSubBuckets) of the
  /// exact nearest-rank value, relatively. 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace graffix
