#include "harness/sim_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "support/assert.hpp"

namespace locus {

namespace {

int g_default_threads = 0;  // 0: resolve from the environment

int resolve_env_threads() {
  const char* env = std::getenv("LOCUS_THREADS");
  if (env == nullptr) return 1;
  const int n = std::atoi(env);
  return n > 0 ? n : 1;
}

bool env_flag(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

}  // namespace

void set_sim_threads(int n) { g_default_threads = n > 0 ? n : 0; }

int sim_threads() {
  return g_default_threads > 0 ? g_default_threads : resolve_env_threads();
}

int available_cpus() {
  // Captured on first query: the pool asks once per run.
  static const int cpus = [] {
#if defined(__linux__)
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
      const int n = CPU_COUNT(&mask);
      if (n > 0) return n;
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }();
  return cpus;
}

SimPool::SimPool(int threads)
    : threads_(threads > 0 ? threads : sim_threads()) {
  LOCUS_ASSERT(threads_ >= 1);
}

int SimPool::effective_workers(std::size_t jobs) const {
  std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads_), jobs);
  if (!env_flag("LOCUS_POOL_IGNORE_AFFINITY")) {
    // Spawning more workers than the affinity mask offers cpus buys no
    // parallelism and pays spawn + context-switch + steal overhead; on a
    // 1-cpu host this turns every pooled run back into the inline path.
    workers = std::min<std::size_t>(
        workers, static_cast<std::size_t>(available_cpus()));
  }
  return static_cast<int>(std::max<std::size_t>(workers, 1));
}

namespace {

/// Shared state of one run_all call. Each worker owns deque[worker]; all
/// deques are guarded by one mutex apiece so steals are safe. `remaining`
/// is the run's termination condition: workers spin between their own
/// deque and steal attempts until every job has been *completed* (not
/// merely claimed), which also keeps a worker alive to steal the tail of a
/// long job list.
struct RunState {
  /// Cache-line aligned so one worker's queue mutations (and the mutex
  /// word a thief spins on) never invalidate a neighbour worker's line.
  struct alignas(64) WorkerQueue {
    std::mutex mutex;
    std::deque<std::size_t> jobs;
  };

  explicit RunState(std::size_t workers) : queues(workers) {}

  std::vector<WorkerQueue> queues;
  alignas(64) std::atomic<std::size_t> remaining{0};

  std::mutex error_mutex;
  std::exception_ptr error;        ///< first failure by job index
  std::size_t error_index = 0;

  bool pop_own(std::size_t worker, std::size_t& out) {
    WorkerQueue& q = queues[worker];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (q.jobs.empty()) return false;
    out = q.jobs.front();
    q.jobs.pop_front();
    return true;
  }

  bool steal(std::size_t thief, std::size_t& out) {
    const std::size_t n = queues.size();
    for (std::size_t k = 1; k < n; ++k) {
      WorkerQueue& q = queues[(thief + k) % n];
      std::lock_guard<std::mutex> lock(q.mutex);
      if (q.jobs.empty()) continue;
      out = q.jobs.back();  // steal the cold end
      q.jobs.pop_back();
      return true;
    }
    return false;
  }

  void record_error(std::size_t index) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (error == nullptr || index < error_index) {
      error = std::current_exception();
      error_index = index;
    }
  }
};

void worker_loop(RunState& state, std::size_t worker,
                 const std::function<void(std::size_t)>& fn) {
  std::size_t job;
  int idle_rounds = 0;
  while (state.remaining.load(std::memory_order_acquire) > 0) {
    if (!state.pop_own(worker, job) && !state.steal(worker, job)) {
      if (worker == 0) return;  // caller thread: nothing left to claim
      // Idle helper: yield first (a queued job may appear within one
      // quantum), then back off to short sleeps so a tail of long jobs is
      // not shadowed by N-1 workers burning the cores the jobs need.
      if (++idle_rounds < 8) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::min(idle_rounds * 4, 200)));
      }
      continue;
    }
    idle_rounds = 0;
    try {
      fn(job);
    } catch (...) {
      state.record_error(job);
    }
    state.remaining.fetch_sub(1, std::memory_order_acq_rel);
  }
}

}  // namespace

void SimPool::run_indexed(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers =
      static_cast<std::size_t>(effective_workers(n));
  if (workers == 1) {
    // Serial fast path: run inline, spawn nothing. This is bit-for-bit the
    // pre-pool behaviour and the reference the determinism tests diff
    // against; it also absorbs widths the affinity mask cannot serve.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  RunState state(workers);
  for (std::size_t i = 0; i < n; ++i) {
    state.queues[i % workers].jobs.push_back(i);
  }
  state.remaining.store(n, std::memory_order_release);

  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    helpers.emplace_back([&state, w, &fn] { worker_loop(state, w, fn); });
  }
  worker_loop(state, 0, fn);  // the caller is worker 0
  for (std::thread& t : helpers) t.join();

  if (state.error != nullptr) std::rethrow_exception(state.error);
}

void SimPool::run_all(std::vector<SimJob> jobs) {
  run_indexed(jobs.size(), [&](std::size_t i) { jobs[i].run(); });
}

}  // namespace locus
