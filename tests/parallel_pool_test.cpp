// Unit tests for the persistent worker pool behind parallel_tasks /
// parallel_for (util/parallel.{hpp,cpp}). These drive detail::
// pool_dispatch directly with an explicit width so real pool threads
// are exercised even on a one-core box, where effective_workers()
// would otherwise serialize every template wrapper inline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include <sched.h>

#include "util/parallel.hpp"

namespace graffix {
namespace {

struct DispatchProbe {
  std::vector<std::atomic<std::uint32_t>> hits;
  std::atomic<std::uint32_t> not_in_parallel{0};
  std::atomic<std::uint32_t> wide{0};  // tasks that saw more than 1 worker

  explicit DispatchProbe(std::size_t n) : hits(n) {}
};

void probe_task(void* ctx, std::size_t i) {
  auto* p = static_cast<DispatchProbe*>(ctx);
  p->hits[i].fetch_add(1, std::memory_order_relaxed);
  // Every task — on a worker OR on the participating caller — runs
  // inside a parallel region as far as nesting guards are concerned.
  if (!in_parallel()) p->not_in_parallel.fetch_add(1);
  if (effective_workers() != 1) p->wide.fetch_add(1);
}

TEST(WorkerPool, DispatchRunsEveryIndexExactlyOnce) {
  constexpr std::size_t kTasks = 4096;
  DispatchProbe probe(kTasks);
  ASSERT_FALSE(in_parallel());
  detail::pool_dispatch(kTasks, /*width=*/4, probe_task, &probe);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(probe.hits[i].load(), 1u) << "index " << i;
  }
  EXPECT_EQ(probe.not_in_parallel.load(), 0u);
  // The dispatch is a barrier: the caller's pool-participation flag must
  // be restored before control returns.
  EXPECT_FALSE(in_parallel());
  // width 4 = caller + up to 3 pool workers, spawned lazily but spawned
  // for real — this is what puts the pool under the TSan shard.
  EXPECT_GE(detail::pool_spawned_for_test(), 3);
}

TEST(WorkerPool, RedispatchReusesWorkers) {
  DispatchProbe warmup(64);
  detail::pool_dispatch(64, /*width=*/4, probe_task, &warmup);
  const int spawned = detail::pool_spawned_for_test();
  EXPECT_GE(spawned, 3);
  // Persistent team: later dispatches at the same width must not spawn
  // — fork/join per sweep is exactly what this pool exists to avoid.
  for (int round = 0; round < 50; ++round) {
    DispatchProbe probe(64);
    detail::pool_dispatch(64, /*width=*/4, probe_task, &probe);
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_EQ(probe.hits[i].load(), 1u);
    }
  }
  EXPECT_EQ(detail::pool_spawned_for_test(), spawned);
}

TEST(WorkerPool, SerialPathsSkipThePool) {
  // n_tasks <= 1 or width <= 1 runs inline on the caller with no
  // parallel-region flag: nothing runs concurrently, so a sweep nested in
  // such a task keeps the full width effective_workers() reports.
  DispatchProbe probe(1);
  detail::pool_dispatch(1, /*width=*/8, probe_task, &probe);
  EXPECT_EQ(probe.hits[0].load(), 1u);
  EXPECT_EQ(probe.not_in_parallel.load(), 1u);

  DispatchProbe narrow(16);
  detail::pool_dispatch(16, /*width=*/1, probe_task, &narrow);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(narrow.hits[i].load(), 1u);
  }
  EXPECT_EQ(narrow.not_in_parallel.load(), 16u);
}

struct NestedProbe {
  std::atomic<std::uint32_t> outer{0};
  std::atomic<std::uint32_t> inner{0};
  std::atomic<std::uint32_t> inner_escaped{0};
};

TEST(WorkerPool, EffectiveWorkersIsOneInsideATask) {
  // The one width query: every task of a real dispatch — on a worker or
  // on the participating caller — reads 1, so a fan-out nested in it
  // runs inline. Outside a dispatch it reads min(num_threads(), procs),
  // where procs is the CPU count of the process affinity mask.
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  const int procs = CPU_COUNT(&set);
  EXPECT_EQ(num_threads(), procs);
  EXPECT_EQ(effective_workers(), procs);
  for (const int t : {1, 2, 8, 64}) {
    const ScopedNumThreads pin(t);
    EXPECT_EQ(effective_workers(), std::min(t, procs)) << "t=" << t;
    DispatchProbe probe(64);
    detail::pool_dispatch(64, /*width=*/2, probe_task, &probe);
    EXPECT_EQ(probe.not_in_parallel.load(), 0u) << "t=" << t;
    EXPECT_EQ(probe.wide.load(), 0u) << "t=" << t;
    EXPECT_EQ(effective_workers(), std::min(t, procs)) << "t=" << t;
  }
}

TEST(WorkerPool, NestedParallelTasksSerializeInsteadOfDeadlocking) {
  // parallel_tasks called from inside a pool task must run its body
  // inline (effective_workers() is 1 there): re-entering the pool from a
  // worker would self-deadlock the team, and oversubscribing never helps
  // deterministic CPU-bound work. Completion of this test IS the
  // no-deadlock assertion.
  NestedProbe probe;
  detail::pool_dispatch(
      32, /*width=*/4,
      [](void* ctx, std::size_t) {
        auto* p = static_cast<NestedProbe*>(ctx);
        p->outer.fetch_add(1);
        parallel_tasks(8, [&](std::size_t) {
          p->inner.fetch_add(1);
          if (!in_parallel()) p->inner_escaped.fetch_add(1);
        });
      },
      &probe);
  EXPECT_EQ(probe.outer.load(), 32u);
  EXPECT_EQ(probe.inner.load(), 32u * 8u);
  EXPECT_EQ(probe.inner_escaped.load(), 0u);
}

TEST(WorkerPool, UnevenTaskCostStillCoversEveryIndex) {
  // Dynamic claiming: wildly skewed bodies (one task does ~all the
  // work) must not strand indices behind a static partition.
  struct Skew {
    std::vector<std::atomic<std::uint32_t>> hits;
    std::atomic<std::uint64_t> sink{0};
    explicit Skew(std::size_t n) : hits(n) {}
  } probe(257);
  detail::pool_dispatch(
      257, /*width=*/4,
      [](void* ctx, std::size_t i) {
        auto* p = static_cast<Skew*>(ctx);
        p->hits[i].fetch_add(1);
        if (i == 0) {
          std::uint64_t x = 88172645463325252ull;
          for (int k = 0; k < 2000000; ++k) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
          }
          p->sink.fetch_add(x);
        }
      },
      &probe);
  for (std::size_t i = 0; i < 257; ++i) {
    EXPECT_EQ(probe.hits[i].load(), 1u) << "index " << i;
  }
}

TEST(WorkerPool, TemplateWrappersStayDeterministic) {
  // parallel_for's static slices through the pool must cover the range
  // exactly once regardless of thread setting (on a one-core box these
  // serialize inline; on CI they hit the pool — same contract).
  for (int t : {1, 2, 8}) {
    const ScopedNumThreads pin(t);
    std::vector<std::atomic<std::uint32_t>> hits(1000);
    parallel_for(std::size_t{0}, std::size_t{1000},
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1u) << "t=" << t << " i=" << i;
    }
    std::vector<std::atomic<std::uint32_t>> dyn(777);
    parallel_for_dynamic(std::size_t{0}, std::size_t{777},
                         [&](std::size_t i) { dyn[i].fetch_add(1); }, 64);
    for (std::size_t i = 0; i < dyn.size(); ++i) {
      EXPECT_EQ(dyn[i].load(), 1u) << "t=" << t << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace graffix
