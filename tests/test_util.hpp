// Shared test builders: the seeded inputs several test files need are
// defined once here so "a small deterministic circuit" and "a random cost
// landscape" mean the same thing everywhere.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/generator.hpp"
#include "grid/cost_array.hpp"
#include "harness/sim_pool.hpp"
#include "route/path.hpp"
#include "shm/trace.hpp"
#include "support/rng.hpp"

namespace locus::test {

/// Deterministic non-uniform cost landscape: every cell drawn from
/// [0, max_cost) with the given seed.
inline CostArray make_random_landscape(std::int32_t channels,
                                       std::int32_t grids, std::uint64_t seed,
                                       std::uint64_t max_cost) {
  CostArray cost(channels, grids);
  Rng rng(seed);
  for (std::int32_t c = 0; c < channels; ++c) {
    for (std::int32_t x = 0; x < grids; ++x) {
      cost.set({c, x}, static_cast<std::int32_t>(rng.bounded(max_cost)));
    }
  }
  return cost;
}

/// The 24-wire tiny circuit used across the golden, property, and check
/// tests. Different seeds give structurally similar but distinct circuits.
inline Circuit make_seeded_circuit(std::uint64_t seed = 7) {
  return make_tiny_test_circuit(seed);
}

/// make_bnre_like()'s geometry cut down to 60 wires.
inline Circuit make_bnre60() {
  GeneratorParams p;
  p.name = "bnrE-like-60";
  p.num_wires = 60;
  return generate_circuit(p);
}

/// The references of `trace` in visitation order, copied out so a test can
/// index them.
inline std::vector<MemRef> trace_refs(const RefTrace& trace) {
  std::vector<MemRef> refs;
  refs.reserve(trace.size());
  trace.for_each([&](const MemRef& r) { refs.push_back(r); });
  return refs;
}

/// The cells of `runs`, run by run and left to right in each: (channel, x)
/// order for a WireRoute's runs.
inline std::vector<GridPoint> expand_runs(std::span<const RowRun> runs) {
  std::vector<GridPoint> cells;
  for (const RowRun& r : runs) {
    for (std::int32_t x = r.x_lo; x <= r.x_hi; ++x) cells.push_back(GridPoint{r.channel, x});
  }
  return cells;
}

/// Sets the process-wide simulation width (set_sim_threads) for one scope;
/// on exit the width resolves from LOCUS_THREADS again.
class ScopedSimThreads {
 public:
  explicit ScopedSimThreads(int threads) { set_sim_threads(threads); }
  ~ScopedSimThreads() { set_sim_threads(0); }
  ScopedSimThreads(const ScopedSimThreads&) = delete;
  ScopedSimThreads& operator=(const ScopedSimThreads&) = delete;
};

}  // namespace locus::test
