#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace graffix {

namespace {

using H = LogLinearHistogram;

std::size_t bucket_of(double value) {
  if (!(value >= std::ldexp(1.0, H::kMinExp))) return 0;
  if (value >= std::ldexp(1.0, H::kMaxExp)) return H::kBuckets - 1;
  int e = 0;
  const double m = std::frexp(value, &e);  // value = m * 2^e, m in [0.5, 1)
  const auto sub = static_cast<std::size_t>((2.0 * m - 1.0) * H::kSubBuckets);
  return 1 + static_cast<std::size_t>(e - 1 - H::kMinExp) * H::kSubBuckets + sub;
}

double midpoint(std::size_t bucket) {
  if (bucket == 0) return 0.0;
  const std::size_t j = bucket - 1;
  const int exp = H::kMinExp + static_cast<int>(j / H::kSubBuckets);
  const double sub = static_cast<double>(j % H::kSubBuckets);
  return std::ldexp(1.0 + (sub + 0.5) / H::kSubBuckets, exp);
}

}  // namespace

void LogLinearHistogram::record(double value) {
  if (std::isnan(value)) value = 0.0;
  counts_[bucket_of(value)] += 1;
  min_ = count_ == 0 ? value : std::min(min_, value);
  max_ = count_ == 0 ? value : std::max(max_, value);
  ++count_;
}

void LogLinearHistogram::merge(const LogLinearHistogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
}

double LogLinearHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double want =
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count_));
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(want));
  // The extreme ranks are known exactly.
  if (rank == 1) return min_;
  if (rank >= count_) return max_;
  std::uint64_t seen = 0;
  std::size_t bucket = 0;
  for (; bucket + 1 < kBuckets; ++bucket) {
    seen += counts_[bucket];
    if (seen >= rank) break;
  }
  return std::clamp(midpoint(bucket), min_, max_);
}

}  // namespace graffix
