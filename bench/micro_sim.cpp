// Microbenchmarks for the DES hot path and the SimPool runner:
//   * event heap: dispatch through the EventQueue's indexed 4-ary heap;
//   * pool_profile: the pool's dispatch/steal machinery on trivial jobs, so
//     a future scaling regression can be told apart from the jobs' own
//     cost (run alone: --only=pool_profile).
// Run via scripts/bench_smoke.sh, which records BENCH_sim.json for
// scripts/bench_compare.py to diff against future PRs.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_main.hpp"
#include "harness/sim_pool.hpp"
#include "sim/event_queue.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace locus;

constexpr std::int64_t kBatch = 20000;

/// Shortest timed sample. A batch of a few µs timed alone is decided by the
/// clock's resolution and by any one preemption, so each sample repeats the
/// batch until it lasts at least this long.
constexpr double kMinSampleSeconds = 0.05;

/// Per-batch seconds of `fn`: the best sample over `min_seconds` divided by
/// its repetitions (the minimum is far more stable than the mean, which the
/// 15% regression gate in scripts/bench_compare.py needs). The repetitions
/// double until one sample lasts kMinSampleSeconds.
template <typename Fn>
double per_batch_seconds(Fn&& fn, double min_seconds) {
  const auto sample = [&fn](std::int64_t reps) {
    Stopwatch sw;
    for (std::int64_t r = 0; r < reps; ++r) {
      fn();
      // Keeps the compiler from merging one repetition's stores into the next.
      asm volatile("" ::: "memory");
    }
    return sw.seconds();
  };
  std::int64_t reps = 1;
  while (sample(reps) < kMinSampleSeconds) reps *= 2;
  double best = 1e100;
  Stopwatch total;
  do {
    best = std::min(best, sample(reps) / static_cast<double>(reps));
  } while (total.seconds() < min_seconds);
  return best;
}

// ---------------------------------------------------------------------------
// Event heap: dispatch through the EventQueue (indexed 4-ary heap).

Table run_event_heap() {
  struct Sink {
    std::int64_t value = 0;
    static void bump(void* ctx, SimTime, std::uint64_t, std::uint64_t) {
      ++static_cast<Sink*>(ctx)->value;
    }
  };

  std::int64_t quad_sink = 0;
  const double quad_s = per_batch_seconds(
      [&] {
        EventQueue q;
        Sink sink;
        const EventQueue::HandlerId h = q.add_handler(&Sink::bump, &sink);
        for (std::int64_t i = 0; i < kBatch; ++i) {
          q.schedule(i % 97, h, static_cast<std::uint64_t>(i));
        }
        q.run();
        quad_sink = sink.value;
      },
      0.5);
  LOCUS_ASSERT(quad_sink == kBatch);

  benchmain::record("heap4_dispatch_s", quad_s);
  benchmain::record("events_executed", static_cast<double>(kBatch));

  Table t;
  t.column("heap", Align::kLeft).column("ms / batch").column("Mevents/s");
  t.row().cell("4-ary indexed (EventQueue)").cell(quad_s * 1e3, 3)
      .cell(static_cast<double>(kBatch) / quad_s / 1e6, 2);
  return t;
}

// ---------------------------------------------------------------------------
// pool_profile: the pool's dispatch cost, isolated.

/// RAII toggle for LOCUS_POOL_IGNORE_AFFINITY so the dispatch probe can
/// force real worker threads even on hosts whose affinity mask would clamp
/// the pool to the inline path.
struct ForceThreadsScope {
  std::string saved;
  bool had = false;
  ForceThreadsScope() {
    const char* env = std::getenv("LOCUS_POOL_IGNORE_AFFINITY");
    if (env != nullptr) {
      had = true;
      saved = env;
    }
    ::setenv("LOCUS_POOL_IGNORE_AFFINITY", "1", 1);
  }
  ~ForceThreadsScope() {
    if (had) {
      ::setenv("LOCUS_POOL_IGNORE_AFFINITY", saved.c_str(), 1);
    } else {
      ::unsetenv("LOCUS_POOL_IGNORE_AFFINITY");
    }
  }
};

Table run_pool_profile() {
  Table t;
  t.column("probe", Align::kLeft).column("ms / batch").column("note",
                                                             Align::kLeft);

  // --- Dispatch: what the pool machinery itself costs. Trivial jobs make
  // queue push/pop, the remaining-counter, and steals the whole bill.
  constexpr std::size_t kJobs = 4096;
  std::vector<std::uint64_t> slots(kJobs, 0);
  const double loop_s = per_batch_seconds(
      [&] {
        for (std::size_t i = 0; i < kJobs; ++i) slots[i] += i;
      },
      0.5);
  const double pool1_s = per_batch_seconds(
      [&] {
        SimPool pool(1);
        pool.run_indexed(kJobs, [&](std::size_t i) { slots[i] += i; });
      },
      0.5);
  double forced2 = 0.0;
  {
    ForceThreadsScope force;
    forced2 = per_batch_seconds(
        [&] {
          SimPool pool(2);
          pool.run_indexed(kJobs, [&](std::size_t i) { slots[i] += i; });
        },
        0.5);
  }
  benchmain::record("dispatch_loop_s", loop_s);
  benchmain::record("dispatch_pool1_s", pool1_s);
  // Host-dependent (real threads on whatever cpus exist): informational.
  benchmain::record("dispatch_pool2_forced", forced2);
  t.row().cell("dispatch: plain loop").cell(loop_s * 1e3, 3)
      .cell("4096 trivial jobs");
  t.row().cell("dispatch: pool width 1").cell(pool1_s * 1e3, 3)
      .cell("inline path");
  t.row().cell("dispatch: pool width 2").cell(forced2 * 1e3, 3)
      .cell("forced threads: queue+steal");

  return t;
}

}  // namespace

int main(int argc, char** argv) {
  return benchmain::run(
      argc, argv, "DES hot path + SimPool microbenchmarks",
      // bench_compare.py keys counters by section title, so the pool
      // section keeps the title BENCH_sim.json recorded it under.
      {{"event heap (4-ary)", [] { return run_event_heap(); }},
       {"pool_profile (allocator / dispatch)",
        [] { return run_pool_profile(); }}});
}
