// Structured host parallelism.
//
// Graffix's preprocessing transforms, the exact host algorithms, and the
// SIMT engine's sweep phases are parallelized with these helpers rather
// than raw threading primitives so that grain size, determinism
// requirements, and thread counts are controlled in one place (per the
// repo's HPC guidelines: all parallelism is explicit and scoped; no
// detached threads).
//
// The three wrappers (parallel_tasks, parallel_for, parallel_for_dynamic)
// dispatch onto a single persistent worker pool (util/parallel.cpp):
// workers are spawned once and parked on a condition variable between
// jobs, so hot paths that launch many small parallel regions per
// iteration (the engine runs one per sweep phase) pay a wake instead of
// a full thread fork/join. The caller always participates as the first
// worker and tasks are claimed with an atomic counter, so an idle or
// dead pool can never stall a dispatch. The pool is the only host
// parallel runtime; every fan-out is sized by effective_workers().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace graffix {

/// Number of worker threads parallel regions will use: the override if
/// one is set, else the CPU count of the process affinity mask.
int num_threads();

/// Override the worker count (0 = hardware default). Used by tests to pin
/// determinism-sensitive paths.
void set_num_threads(int n);

/// True on a thread currently executing a pool task (pool workers, and
/// the caller while it participates in its own dispatch).
bool in_parallel();

/// The one width query: the number of workers a fan-out may use from
/// here. Inside a pool task it is 1, so nested helpers run inline
/// instead of re-entering the pool. Elsewhere it is min(num_threads(),
/// processor count): pinning a pool wider than the machine (the
/// determinism tests do this on purpose) oversubscribes, which never
/// speeds up CPU-bound deterministic work — it only adds context-switch
/// overhead. Fan-out *sizing* decisions (engine sweep chunks, BC source
/// fan-out, bench matrices) use this; outputs are bit-identical either
/// way (DESIGN.md §7), so it only affects speed.
int effective_workers();

/// RAII thread-count pin: sets num_threads(n) for the enclosing scope and
/// restores the hardware default (0) on exit. The determinism tests sweep
/// 1/2/8 workers around code that can ASSERT out mid-scope; a raw
/// set_num_threads pair leaks the pin past the failing test, poisoning
/// every later test in the binary.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int n) { set_num_threads(n); }
  ~ScopedNumThreads() { set_num_threads(0); }
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;
};

namespace detail {

/// Type-erased task body: invoked as task(ctx, index) for each claimed
/// index in [0, n_tasks).
using PoolTask = void (*)(void* ctx, std::size_t index);

/// Dispatches indices [0, n_tasks) over the persistent worker pool with
/// at most `width` threads (caller + width-1 pool workers) and returns
/// when every index has been executed. Indices are claimed dynamically
/// with an atomic counter, so bodies may have uneven cost. Must not be
/// called from inside a pool task (the template wrappers below
/// serialize instead); bodies must not throw from pool workers.
void pool_dispatch(std::size_t n_tasks, int width, PoolTask task, void* ctx);

/// Worker threads the pool has actually spawned so far (testing only).
int pool_spawned_for_test() noexcept;

}  // namespace detail

/// Runs body(t) for every task index t in [0, n_tasks) on the persistent
/// pool, clamped to effective_workers(). Tasks are claimed dynamically;
/// the body must be safe to run concurrently for distinct indices. With
/// one effective worker (always the case inside a pool task) the tasks
/// run inline on the caller in ascending index order. This is the
/// building block the engine's sweep phases use directly: each task is
/// one pre-sized chunk of warp blocks.
template <typename Body>
void parallel_tasks(std::size_t n_tasks, Body&& body) {
  if (n_tasks == 0) return;
  const int width = effective_workers();
  if (n_tasks == 1 || width <= 1) {
    for (std::size_t i = 0; i < n_tasks; ++i) body(i);
    return;
  }
  using B = std::remove_reference_t<Body>;
  B* ptr = std::addressof(body);
  detail::pool_dispatch(
      n_tasks, width,
      [](void* ctx, std::size_t i) { (*static_cast<B*>(ctx))(i); },
      const_cast<void*>(static_cast<const void*>(ptr)));
}

/// parallel_for over [begin, end) with static partitioning: the range is
/// split into effective_workers() contiguous slices. The body must be
/// safe to run concurrently for distinct indices.
template <typename Index, typename Body>
void parallel_for(Index begin, Index end, Body&& body) {
  const auto n = static_cast<std::int64_t>(end) - static_cast<std::int64_t>(begin);
  if (n <= 0) return;
  const int width = effective_workers();
  if (width <= 1 || n == 1) {
    for (std::int64_t i = 0; i < n; ++i) body(static_cast<Index>(begin + i));
    return;
  }
  const auto slices = static_cast<std::int64_t>(width) < n
                          ? static_cast<std::int64_t>(width)
                          : n;
  const std::int64_t per = n / slices;
  const std::int64_t rem = n % slices;
  auto slice_begin = [&](std::int64_t s) {
    return s * per + (s < rem ? s : rem);
  };
  parallel_tasks(static_cast<std::size_t>(slices), [&](std::size_t s) {
    const auto t = static_cast<std::int64_t>(s);
    const std::int64_t hi = slice_begin(t + 1);
    for (std::int64_t i = slice_begin(t); i < hi; ++i) {
      body(static_cast<Index>(begin + i));
    }
  });
}

/// parallel_for with dynamic scheduling for irregular per-index work
/// (e.g. neighbor enumeration over skewed degree distributions): the
/// range is cut into grain-sized tasks claimed dynamically.
template <typename Index, typename Body>
void parallel_for_dynamic(Index begin, Index end, Body&& body,
                          std::int64_t grain = 256) {
  const auto n = static_cast<std::int64_t>(end) - static_cast<std::int64_t>(begin);
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const std::int64_t n_tasks = (n + grain - 1) / grain;
  parallel_tasks(static_cast<std::size_t>(n_tasks), [&](std::size_t c) {
    const std::int64_t lo = static_cast<std::int64_t>(c) * grain;
    const std::int64_t hi = lo + grain < n ? lo + grain : n;
    for (std::int64_t i = lo; i < hi; ++i) {
      body(static_cast<Index>(begin + i));
    }
  });
}

}  // namespace graffix
