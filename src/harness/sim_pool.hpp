// Work-stealing runner for independent deterministic simulations.
//
// Every measured artifact in this repo is produced by running many
// *independent* `Machine` / shm / coherence simulations back to back: a
// table sweep routes the same circuit under a dozen schedules, the
// differential oracle re-routes it under six engines, the packet fuzzer
// replays a thousand seeds. Each job is single-threaded and deterministic;
// nothing about the *set* is. SimPool executes such a job list on N worker
// threads and collects results by submission index, so the output of
// `run_all` is byte-identical to a serial loop regardless of thread count,
// scheduling, or steals — determinism lives in the jobs, ordering in the
// collection.
//
// Scheduling: jobs are dealt round-robin onto per-worker deques; a worker
// drains its own deque from the front and, when empty, steals from the
// back of a victim's. Queues are mutex-guarded — jobs here are whole
// simulations (milliseconds to seconds), so queue traffic is cold and a
// Chase-Lev lock-free deque would buy nothing measurable.
//
// Thread count resolution, in priority order:
//   1. the explicit constructor argument (> 0),
//   2. the process-wide default set via set_sim_threads() (reproduce_paper
//      and the bench binaries wire their --threads flag here),
//   3. the LOCUS_THREADS environment variable,
//   4. serial (1 thread — the pool then runs jobs inline on the caller,
//      spawning nothing, which is the mode every existing test runs in).
//
// Hardware awareness: a run never spawns more workers than the process
// affinity mask can actually execute in parallel (available_cpus) —
// on a 1-cpu host a width-8 pool runs inline rather than paying spawn,
// context-switch and steal traffic for zero parallelism, and results are
// identical either way by the determinism contract. Set
// LOCUS_POOL_IGNORE_AFFINITY=1 to force real threads anyway (the TSan
// preset does, so cross-thread edges are exercised even on small hosts).
//
// Memory: per-worker deques are cache-line aligned so queue state and
// steal traffic don't false-share.
//
// Per-job observability: give each job its own obs::Obs and merge after
// run_all returns via CounterRegistry::merge_from (a registry has a single
// writer).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace locus {

/// Process-wide default worker count used by SimPool{} and the harness
/// fan-outs. `n > 0` sets it; `n == 0` resets to "resolve from
/// LOCUS_THREADS, else serial".
void set_sim_threads(int n);
/// The resolved process-wide default (>= 1).
int sim_threads();

/// CPUs the calling process may run on (the affinity mask size when the OS
/// exposes one, else hardware_concurrency), >= 1. The pool clamps its
/// width to this so it never spawns workers the kernel cannot run in
/// parallel.
int available_cpus();

/// One unit of work: an independent, self-contained simulation. The
/// callable must not touch state shared with any other job in the same
/// run_all call (the pool-backed suites run under TSan to enforce this).
struct SimJob {
  std::string name;            ///< for diagnostics; may be empty
  std::function<void()> run;
};

class SimPool {
 public:
  /// `threads <= 0` resolves via sim_threads().
  explicit SimPool(int threads = 0);

  int threads() const { return threads_; }

  /// Workers a run over `jobs` jobs would actually use: threads() clamped
  /// to the job count and to the cpus the affinity mask offers (unless
  /// LOCUS_POOL_IGNORE_AFFINITY=1). 1 means the run executes inline.
  int effective_workers(std::size_t jobs) const;

  /// Runs every job exactly once and returns when all are done. Jobs are
  /// indexed by submission order; any exception is rethrown on the caller
  /// (first by job index) after all workers join.
  void run_all(std::vector<SimJob> jobs);

  /// Index-based form: invokes `fn(i)` for i in [0, n).
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Typed form with deterministic, submission-ordered collection:
  /// `result[i]` is jobs[i]()'s return value, independent of which worker
  /// ran it or in what order the steals happened.
  template <typename Result>
  std::vector<Result> run_all(std::vector<std::function<Result()>> jobs) {
    std::vector<Result> results(jobs.size());
    run_indexed(jobs.size(),
                [&](std::size_t i) { results[i] = jobs[i](); });
    return results;
  }

  /// Maps `fn` over [0, n) and collects fn(i) into slot i.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{}))> {
    std::vector<decltype(fn(std::size_t{}))> results(n);
    run_indexed(n, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  int threads_;
};

}  // namespace locus
