#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <sched.h>

#include "util/macros.hpp"

namespace graffix {

namespace {
int g_override_threads = 0;

/// Set while a thread is executing pool tasks: permanently on pool
/// worker threads, and on the caller for the duration of its own
/// dispatch. in_parallel() reads this, and effective_workers() answers 1
/// while it is set, so fan-outs nested in a task body (engine chunking,
/// BC fan-out) run inline.
thread_local bool tl_pool_worker = false;

/// Persistent worker team behind the parallel_* wrappers.
///
/// Design (and why it is safe):
///  - Workers are spawned lazily up to the widest dispatch seen (minus
///    the caller), parked on a condition variable between jobs, and
///    joined by the singleton's destructor at process exit — no
///    detached threads, and every synchronization edge goes through
///    std primitives, so the pool is fully visible to TSan.
///  - A job is a stack-allocated descriptor published under the mutex;
///    `generation_` distinguishes it from the previous job for workers
///    that raced their wakeup. Task indices are claimed with an atomic
///    counter, so scheduling is dynamic and the *caller participates*:
///    it drains the queue alongside the workers. That makes dispatch
///    robust by construction — if no worker ever joins (machine busy,
///    forked child with dead threads), the caller simply runs every
///    task itself and the wait below is a no-op.
///  - Teardown of the descriptor is safe because the caller closes the
///    job (job_ = nullptr, so no new worker can join) and then waits
///    until `active` — the count of workers currently inside the job —
///    drops to zero. A worker's final action on the job is that
///    fetch_sub; the wake-the-caller notify that follows never touches
///    the descriptor.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  void dispatch(std::size_t n_tasks, int width, detail::PoolTask task,
                void* ctx) {
    GRAFFIX_CHECK(!tl_pool_worker,
                  "pool dispatch from inside a pool task: nested parallel "
                  "regions must serialize (size them by effective_workers())");
    // One job slot: independent top-level dispatchers (e.g. two user
    // threads each driving their own engine) queue here instead of
    // stomping each other's published job. Workers never take this lock.
    std::lock_guard<std::mutex> dispatch_lk(dispatch_m_);
    Job job;
    job.task = task;
    job.ctx = ctx;
    job.n_tasks = n_tasks;
    job.max_helpers = width - 1;
    ensure_workers(job.max_helpers);
    {
      std::lock_guard<std::mutex> lk(m_);
      job_ = &job;
      ++generation_;
    }
    cv_.notify_all();
    // The caller is the first worker; helpers join concurrently.
    tl_pool_worker = true;
    try {
      run_tasks(job);
    } catch (...) {
      tl_pool_worker = false;
      close_and_drain(job);
      throw;
    }
    tl_pool_worker = false;
    close_and_drain(job);
  }

  int spawned() const {
    std::lock_guard<std::mutex> lk(m_);
    return static_cast<int>(threads_.size());
  }

 private:
  struct Job {
    detail::PoolTask task = nullptr;
    void* ctx = nullptr;
    std::size_t n_tasks = 0;
    int max_helpers = 0;
    int joined = 0;  // guarded by m_
    std::atomic<std::size_t> next{0};
    std::atomic<int> active{0};  // helpers currently inside the job
  };

  /// Workers beyond this would thrash any machine we target; also bounds
  /// the spawn that direct pool_dispatch tests can request.
  static constexpr int kMaxWorkers = 64;

  WorkerPool() = default;

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lk(m_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  static void run_tasks(Job& job) {
    std::size_t i;
    while ((i = job.next.fetch_add(1, std::memory_order_relaxed)) <
           job.n_tasks) {
      job.task(job.ctx, i);
    }
  }

  void close_and_drain(Job& job) {
    std::unique_lock<std::mutex> lk(m_);
    job_ = nullptr;
    done_cv_.wait(lk, [&] {
      return job.active.load(std::memory_order_acquire) == 0;
    });
  }

  void ensure_workers(int helpers) {
    if (helpers > kMaxWorkers) helpers = kMaxWorkers;
    std::lock_guard<std::mutex> lk(m_);
    while (static_cast<int>(threads_.size()) < helpers) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    tl_pool_worker = true;  // pool threads never run anything else
    std::uint64_t seen = 0;
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lk(m_);
        cv_.wait(lk, [&] {
          return shutdown_ || (job_ != nullptr && generation_ != seen);
        });
        if (shutdown_) return;
        seen = generation_;
        if (job_->joined >= job_->max_helpers) continue;
        job = job_;
        ++job->joined;
        job->active.fetch_add(1, std::memory_order_relaxed);
      }
      run_tasks(*job);
      if (job->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last helper out wakes the caller; taking the lock orders this
        // notify after the caller entered its wait.
        std::lock_guard<std::mutex> lk(m_);
        done_cv_.notify_all();
      }
    }
  }

  std::mutex dispatch_m_;  // serializes top-level dispatchers
  mutable std::mutex m_;
  std::condition_variable cv_;       // workers park here between jobs
  std::condition_variable done_cv_;  // caller waits here for helpers
  std::vector<std::thread> threads_;
  Job* job_ = nullptr;         // guarded by m_
  std::uint64_t generation_ = 0;  // guarded by m_
  bool shutdown_ = false;         // guarded by m_
};

/// CPU count of the process affinity mask, read once: the hardware
/// default. std::thread::hardware_concurrency() would ignore the mask.
int affinity_procs() {
  static const int procs = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
    const int n = CPU_COUNT(&set);
    return n > 0 ? n : 1;
  }();
  return procs;
}

}  // namespace

int num_threads() {
  if (g_override_threads > 0) return g_override_threads;
  return affinity_procs();
}

void set_num_threads(int n) { g_override_threads = n > 0 ? n : 0; }

bool in_parallel() { return tl_pool_worker; }

int effective_workers() {
  if (tl_pool_worker) return 1;
  const int procs = affinity_procs();
  const int threads = num_threads();
  return threads < procs ? threads : procs;
}

namespace detail {

void pool_dispatch(std::size_t n_tasks, int width, PoolTask task, void* ctx) {
  if (n_tasks == 0) return;
  if (width <= 1 || n_tasks == 1) {
    for (std::size_t i = 0; i < n_tasks; ++i) task(ctx, i);
    return;
  }
  WorkerPool::instance().dispatch(n_tasks, width, task, ctx);
}

int pool_spawned_for_test() noexcept { return WorkerPool::instance().spawned(); }

}  // namespace detail

}  // namespace graffix
