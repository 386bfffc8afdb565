#include "harness/sim_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace locus {

namespace {

int g_sim_threads = 0;  // 0: resolve from the environment

}  // namespace

void set_sim_threads(int n) { g_sim_threads = n > 0 ? n : 0; }

int sim_threads() {
  if (g_sim_threads > 0) return g_sim_threads;
  const char* env = std::getenv("LOCUS_THREADS");
  const int n = env != nullptr ? std::atoi(env) : 0;
  return n > 0 ? n : 1;
}

int available_cpus() {
  // Captured on first query: the affinity mask does not change mid-run.
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

void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn) {
  // More workers than the affinity mask offers cpus buy no parallelism.
  const std::size_t width =
      std::min({static_cast<std::size_t>(sim_threads()), n,
                static_cast<std::size_t>(available_cpus())});
  if (width <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_index = n;
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
      }
    }
  };

  std::vector<std::thread> helpers;
  helpers.reserve(width - 1);
  for (std::size_t w = 1; w < width; ++w) {
    try {
      helpers.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // out of threads: the workers already running claim every index
    }
  }
  work();  // the caller is a worker too
  for (std::thread& t : helpers) t.join();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace locus
