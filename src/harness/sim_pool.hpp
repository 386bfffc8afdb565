// Shared-counter runner for independent deterministic simulations.
//
// Every measured artifact in this repo is produced by running many
// *independent* `Machine` / shm / coherence simulations back to back: a
// table sweep routes the same circuit under a dozen schedules, the
// differential oracle re-routes it under six engines, the transport
// property test replays fifty seeds. Each job is single-threaded and
// deterministic; nothing about the *set* is. run_indexed hands the job
// indices out the way the paper's shared memory LocusRoute hands out
// wires: one shared counter that every worker fetch-and-increments until
// it passes the end. Results are collected by index (map_indexed, or
// caller-owned slots), so a fan-out is byte-identical to a serial loop at
// any width — determinism lives in the jobs, ordering in the collection.
//
// Width: min(sim_threads(), jobs, available_cpus()) threads, the caller
// included. sim_threads() is the value given to set_sim_threads() (the
// --threads flag of reproduce_paper and the sweep binaries), else the
// LOCUS_THREADS environment variable, else 1. Width 1 is a plain loop on
// the caller that spawns nothing.
//
// Per-job observability: give each job its own obs::Obs and merge after
// the run returns via CounterRegistry::merge_from (a registry has a single
// writer).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace locus {

/// Process-wide simulation width. `n > 0` sets it; `n <= 0` resets to
/// "LOCUS_THREADS, else serial".
void set_sim_threads(int n);
/// The resolved process-wide width (>= 1).
int sim_threads();

/// CPUs the calling process may run on (the affinity mask size when the OS
/// exposes one, else hardware_concurrency), >= 1.
int available_cpus();

/// Calls `fn(i)` exactly once for every i in [0, n) and returns when all
/// calls are done. Jobs must not share mutable state (the pool suites run
/// under TSan to hold that line). If any call throws, the exception of the
/// lowest such i is rethrown on the caller after every worker has joined.
void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

/// `result[i] = fn(i)` for i in [0, n), in index order at any width. The
/// result type needs no default constructor.
template <typename Fn>
auto map_indexed(std::size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using Result = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<std::optional<Result>> slots(n);
  run_indexed(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<Result> results;
  results.reserve(n);
  for (std::optional<Result>& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace locus
