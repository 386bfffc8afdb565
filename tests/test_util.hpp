// Shared test builders: the seeded inputs several test files need are
// defined once here so "a small deterministic circuit" and "a random cost
// landscape" mean the same thing everywhere.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/generator.hpp"
#include "coherence/simulator.hpp"
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

/// The references of `trace` in global order, copied out so a test can index
/// them: every reference with its key (RefTrace::Key), sorted. The library
/// walks a trace only by write intervals (RefTrace::for_each_write_interval);
/// this merged walk is the reference order the tests hold it to.
inline std::vector<MemRef> trace_refs(const RefTrace& trace) {
  std::vector<std::pair<RefTrace::Key, MemRef>> keyed;
  keyed.reserve(trace.size());
  for (std::size_t p = 0; p < trace.streams(); ++p) {
    std::size_t k = 0;
    for (const RefTrace::Block& b : trace.blocks(p)) {
      for (std::uint32_t i = 0; i < b.n; ++i, ++k) {
        const RefTrace::Entry e = trace.entry(p, k);
        const SimTime t = RefTrace::stamp(b, i);
        keyed.emplace_back(RefTrace::Key{t, b.seq, i},
                           MemRef{t, e.addr, static_cast<std::int16_t>(p), e.op});
      }
    }
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<MemRef> refs;
  refs.reserve(keyed.size());
  for (const auto& [key, ref] : keyed) refs.push_back(ref);
  return refs;
}

/// A seeded trace built the way the shm tracer builds one (open_block,
/// push, push_read_run, close_block): `blocks` multi-reference blocks from
/// `procs` processors whose time spans overlap across streams. A block starts
/// 0–2 ns after its stream's previous one ends and lasts 0 ns, less than its
/// reference count (runs of equal stamps) or up to 40 ns, so stamps tie within
/// and across streams. Addresses mix 128 cost-array words, odd byte
/// addresses, the loop counter and words above CoherenceSim::kDenseAddrBound;
/// read runs below the bound step by ±4, 1 or 40 bytes (a -4 run from a low
/// address wraps to the top of the address space), and runs above it by 4.
/// A pushed reference is a write 30% of the time.
inline RefTrace make_overlapping_trace(Rng& rng, std::int32_t procs, std::size_t blocks) {
  auto addr = [&rng]() -> std::uint32_t {
    switch (rng.bounded(12)) {
      case 0:
        return kLoopCounterAddr;
      case 1:
        return CoherenceSim::kDenseAddrBound + static_cast<std::uint32_t>(rng.bounded(16)) * 4;
      case 2:
        return static_cast<std::uint32_t>(rng.bounded(512));  // any byte
      default:
        return static_cast<std::uint32_t>(rng.bounded(128)) * 4;
    }
  };
  constexpr std::int32_t kStrides[] = {4, -4, 1, 40};
  RefTrace trace;
  std::vector<SimTime> clock(static_cast<std::size_t>(procs));
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto proc = static_cast<std::int16_t>(rng.bounded(clock.size()));
    SimTime& end = clock[static_cast<std::size_t>(proc)];
    const SimTime t0 = end + static_cast<SimTime>(rng.bounded(3));
    trace.open_block(proc);
    std::uint64_t n = 0;
    for (std::uint64_t piece = 1 + rng.bounded(4); piece > 0; --piece) {
      if (rng.chance(0.5)) {
        trace.push(addr(), rng.chance(0.3) ? MemOp::kWrite : MemOp::kRead);
        ++n;
      } else {
        const std::uint64_t len = rng.bounded(9);
        const std::uint32_t start = addr();
        // Runs above the bound step upwards, so the dense tables stay small.
        const std::int32_t stride =
            start >= CoherenceSim::kDenseAddrBound ? 4 : kStrides[rng.bounded(4)];
        trace.push_read_run(start, stride, len);
        n += len;
      }
    }
    SimTime duration = 0;
    switch (rng.bounded(3)) {
      case 0:
        break;
      case 1:
        duration = static_cast<SimTime>(rng.bounded(n + 1));
        break;
      default:
        duration = static_cast<SimTime>(rng.bounded(41));
        break;
    }
    trace.close_block(t0, duration);
    end = t0 + duration;
  }
  return trace;
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
