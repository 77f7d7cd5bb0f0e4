// Unit tests for the util substrate: RNG determinism and distribution,
// prefix sums, atomic bitset semantics, and the parallel_for helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/arena.hpp"
#include "util/bitset.hpp"
#include "util/histogram.hpp"
#include "util/parallel.hpp"
#include "util/prefix_sum.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace graffix {
namespace {

TEST(SplitMix64, DeterministicSequence) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Pcg32, DeterministicAcrossInstances) {
  Pcg32 a(7, 3), b(7, 3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Pcg32, BoundedStaysInRange) {
  Pcg32 rng(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_bounded(17), 17u);
  }
}

TEST(Pcg32, BoundedZeroAndOne) {
  Pcg32 rng(5);
  EXPECT_EQ(rng.next_bounded(0), 0u);
  EXPECT_EQ(rng.next_bounded(1), 0u);
}

TEST(Pcg32, DoubleInUnitInterval) {
  Pcg32 rng(99);
  double min = 1.0, max = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    min = std::min(min, x);
    max = std::max(max, x);
  }
  EXPECT_LT(min, 0.05);
  EXPECT_GT(max, 0.95);
}

TEST(Pcg32, FloatInUnitInterval) {
  Pcg32 rng(77);
  for (int i = 0; i < 10000; ++i) {
    const float x = rng.next_float();
    ASSERT_GE(x, 0.0f);
    ASSERT_LT(x, 1.0f);
  }
}

TEST(Pcg32, BoundedIsRoughlyUniform) {
  Pcg32 rng(2024);
  constexpr std::uint32_t kBuckets = 8;
  std::vector<int> counts(kBuckets, 0);
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) counts[rng.next_bounded(kBuckets)]++;
  for (std::uint32_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(MakeStream, IndependentStreams) {
  Pcg32 a = make_stream(42, 0);
  Pcg32 b = make_stream(42, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(MakeStream, Reproducible) {
  Pcg32 a = make_stream(7, 5);
  Pcg32 b = make_stream(7, 5);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(ExclusiveScan, InPlaceSmall) {
  std::vector<int> v{3, 1, 4, 1, 5};
  const int total = exclusive_scan_inplace(std::span<int>(v));
  EXPECT_EQ(total, 14);
  EXPECT_EQ(v, (std::vector<int>{0, 3, 4, 8, 9}));
}

TEST(ExclusiveScan, OutOfPlaceWithTotalSlot) {
  std::vector<int> in{2, 2, 2};
  std::vector<int> out(4, -1);
  const int total = exclusive_scan<int>(in, out);
  EXPECT_EQ(total, 6);
  EXPECT_EQ(out, (std::vector<int>{0, 2, 4, 6}));
}

TEST(ExclusiveScan, EmptyInput) {
  std::vector<int> v;
  EXPECT_EQ(exclusive_scan_inplace(std::span<int>(v)), 0);
}

TEST(AtomicBitset, SetReturnsTrueOnce) {
  AtomicBitset bits(100);
  EXPECT_TRUE(bits.set(7));
  EXPECT_FALSE(bits.set(7));
  EXPECT_TRUE(bits.test(7));
  EXPECT_FALSE(bits.test(8));
}

TEST(AtomicBitset, CountAndClear) {
  AtomicBitset bits(200);
  for (std::size_t i = 0; i < 200; i += 3) bits.set(i);
  EXPECT_EQ(bits.count(), 67u);
  bits.clear();
  EXPECT_EQ(bits.count(), 0u);
}

TEST(AtomicBitset, ConcurrentSetsCountEachBitOnce) {
  AtomicBitset bits(1 << 12);
  std::atomic<int> first_sets{0};
  parallel_for(0, 1 << 14, [&](int i) {
    if (bits.set(static_cast<std::size_t>(i) % (1 << 12))) {
      first_sets.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(first_sets.load(), 1 << 12);
  EXPECT_EQ(bits.count(), static_cast<std::size_t>(1 << 12));
}

TEST(SetNumThreads, ZeroRestoresHardwareDefault) {
  // Regression: set_num_threads(0) once left the pool pinned at the last
  // explicit count forever.
  const int hw = num_threads();
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(0);
  EXPECT_EQ(num_threads(), hw);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  constexpr int n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  std::atomic<bool> called{false};
  parallel_for(5, 5, [&](int) { called = true; });
  parallel_for(5, 3, [&](int) { called = true; });
  EXPECT_FALSE(called.load());
}

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.seconds(), 0.0);
  EXPECT_LT(timer.seconds(), 10.0);
}

TEST(ScopedAccumulator, AddsOnDestruction) {
  double total = 0.0;
  {
    ScopedAccumulator acc(total);
  }
  EXPECT_GE(total, 0.0);
}

TEST(Arena, AcquireIsAlignedAndRoundsToSizeClass) {
  ScratchArena arena;
  void* p = arena.acquire(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  // 100 bytes shares the minimum 256-byte class.
  EXPECT_EQ(arena.outstanding_bytes(), 256u);
  arena.release(p, 100);
  EXPECT_EQ(arena.outstanding_bytes(), 0u);
}

TEST(Arena, ZeroBytesIsNullAndNullReleaseIsNoop) {
  ScratchArena arena;
  EXPECT_EQ(arena.acquire(0), nullptr);
  arena.release(nullptr, 0);
  EXPECT_EQ(arena.outstanding_bytes(), 0u);
  EXPECT_EQ(arena.alloc_count(), 0u);
}

TEST(Arena, ReleaseParksBlockAndNextAcquireReusesIt) {
  ScratchArena arena;
  void* p = arena.acquire(1000);
  const std::size_t cls = arena.outstanding_bytes();  // 1024
  arena.release(p, 1000);
  EXPECT_EQ(arena.outstanding_bytes(), 0u);
  EXPECT_EQ(arena.pooled_bytes(), cls);
  void* q = arena.acquire(1000);
  EXPECT_EQ(q, p);  // served from the free list, not the system
  EXPECT_EQ(arena.reuse_count(), 1u);
  EXPECT_EQ(arena.alloc_count(), 1u);
  EXPECT_EQ(arena.pooled_bytes(), 0u);
  arena.release(q, 1000);
}

TEST(Arena, PeakTracksHighWaterAndResetRestartsFromOutstanding) {
  ScratchArena arena;
  void* a = arena.acquire(1 << 10);
  void* b = arena.acquire(1 << 12);
  const std::size_t high = arena.outstanding_bytes();
  arena.release(b, 1 << 12);
  EXPECT_EQ(arena.peak_bytes(), high);
  arena.reset_peak();
  EXPECT_EQ(arena.peak_bytes(), arena.outstanding_bytes());
  arena.release(a, 1 << 10);
}

TEST(Arena, TrimFreesPooledBlocksOnly) {
  ScratchArena arena;
  void* keep = arena.acquire(1 << 16);
  void* park = arena.acquire(1 << 16);
  arena.release(park, 1 << 16);
  EXPECT_GT(arena.pooled_bytes(), 0u);
  const std::size_t outstanding = arena.outstanding_bytes();
  arena.trim();
  EXPECT_EQ(arena.pooled_bytes(), 0u);
  EXPECT_EQ(arena.outstanding_bytes(), outstanding);
  arena.release(keep, 1 << 16);
}

TEST(ArenaBuffer, FillMoveAndRelease) {
  const std::size_t before = arena_outstanding_bytes();
  {
    ArenaBuffer<int> buf(16, 7);
    for (int v : buf) EXPECT_EQ(v, 7);
    EXPECT_GT(arena_outstanding_bytes(), before);
    ArenaBuffer<int> other(std::move(buf));
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(other.size(), 16u);
    EXPECT_EQ(other[15], 7);
  }
  // Destruction returned the block to the global pool.
  EXPECT_EQ(arena_outstanding_bytes(), before);
}

TEST(ArenaVector, WorksAsVectorAndRecyclesBacking) {
  {
    ArenaVector<int> v;
    v.assign(1000, 3);
    v.push_back(4);
    long long sum = 0;
    for (int x : v) sum += x;
    EXPECT_EQ(sum, 3004);
  }
  // The freed backing store is parked for the next ArenaVector.
  const std::uint64_t reuses_before = ScratchArena::global().reuse_count();
  {
    ArenaVector<int> v;
    v.assign(1000, 1);
  }
  EXPECT_GT(ScratchArena::global().reuse_count(), reuses_before);
}

TEST(ArenaTelemetry, RssCountersReportNonZero) {
  EXPECT_GT(peak_rss_bytes(), 0u);
  EXPECT_GT(current_rss_bytes(), 0u);
}

/// Log-uniform over [1e-3, 1e5): inside the histogram's tracked range.
std::vector<double> latency_sample(std::uint64_t seed, std::size_t n) {
  Pcg32 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = std::pow(10.0, -3.0 + 8.0 * rng.next_double());
  return v;
}

/// Asserts every quantile is within half a bucket of exact nearest-rank
/// (the ceil(q * n)-th smallest sample).
void expect_quantiles_within_bound(const LogLinearHistogram& h,
                                   std::vector<double> sample) {
  std::sort(sample.begin(), sample.end());
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(sample.size()))));
    const double exact = sample[rank - 1];
    EXPECT_LE(std::abs(h.quantile(q) - exact),
              exact / (2 * LogLinearHistogram::kSubBuckets))
        << "q " << q << " exact " << exact;
  }
}

TEST(LogLinearHistogram, QuantilesStayWithinHalfABucketOfNearestRank) {
  const std::vector<double> sample = latency_sample(11, 20000);
  LogLinearHistogram h;
  for (const double x : sample) h.record(x);
  ASSERT_EQ(h.count(), sample.size());
  expect_quantiles_within_bound(h, sample);
  EXPECT_EQ(h.quantile(0.0), *std::min_element(sample.begin(), sample.end()));
  EXPECT_EQ(h.quantile(1.0), *std::max_element(sample.begin(), sample.end()));

  // Merging two halves gives the histogram of the whole.
  LogLinearHistogram first;
  LogLinearHistogram second;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    (i < sample.size() / 2 ? first : second).record(sample[i]);
  }
  second.merge(first);
  EXPECT_EQ(second.count(), h.count());
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(second.quantile(q), h.quantile(q));
  }
}

TEST(LogLinearHistogram, MemoryStaysFixedOverAMillionRecords) {
  // No heap-owning members: the footprint is sizeof, whatever is recorded.
  static_assert(std::is_trivially_copyable_v<LogLinearHistogram>);
  const std::vector<double> sample = latency_sample(12, 1000000);
  LogLinearHistogram h;
  for (const double x : sample) h.record(x);
  EXPECT_EQ(h.count(), sample.size());
  expect_quantiles_within_bound(h, sample);
}

TEST(LogLinearHistogram, EmptyAndOutOfRangeValues) {
  LogLinearHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  // Zero, negatives and NaN share the underflow bucket.
  h.record(0.0);
  h.record(-1.0);
  h.record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.quantile(0.5), 0.0);
  // Values past the tracked range land in the top bucket.
  h.record(1e300);
  h.record(2e300);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_GE(h.quantile(0.8), std::ldexp(1.0, LogLinearHistogram::kMaxExp - 1));
  EXPECT_EQ(h.quantile(1.0), 2e300);
  EXPECT_EQ(h.quantile(0.0), -1.0);
}

}  // namespace
}  // namespace graffix
