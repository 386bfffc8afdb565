// Shared memory LocusRoute under a Tango-like deterministic executor
// (paper §3 + §2.2).
//
// All processors route against ONE cost array with no locking (the paper
// cites Rose's result that unlocked access does not hurt quality). The
// executor multiplexes the logical processors on the host: at every
// scheduling point the processor with the smallest local clock routes its
// next wire against the current shared state, so execution is deterministic
// and interleaving follows simulated time. Routing decisions interleave at
// wire-commit granularity; the emitted reference trace carries per-reference
// timestamps spread across each wire's compute interval, which is what the
// coherence replay consumes (DESIGN.md §5.3).
//
// Wire distribution is either the paper's dynamic *distributed loop* (a
// shared counter handing out wire subscripts, itself a traced shared
// reference) or any static Assignment (round robin / ThresholdCost), which
// is how the Table 5 locality experiments run. Iterations end at a barrier.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "assign/assignment.hpp"
#include "circuit/circuit.hpp"
#include "grid/cost_array.hpp"
#include "obs/obs.hpp"
#include "route/quality.hpp"
#include "route/router.hpp"
#include "shm/trace.hpp"

namespace locus {

struct ShmConfig {
  std::int32_t iterations = 2;
  std::int32_t procs = 16;
  /// Static assignment; if unset, the dynamic distributed loop is used.
  std::optional<Assignment> assignment;
  /// Record the shared-reference trace (disable for quality-only runs).
  bool capture_trace = true;
  /// Optional observability sink: per-wire route spans on "proc N" tracks
  /// (in simulated time) while the run executes, then the route.* and shm.*
  /// counters published from the finished ShmRunResult (work totals and
  /// the captured shared-reference count). Not owned.
  obs::Obs* obs = nullptr;
};

struct ShmRunResult {
  std::int64_t circuit_height = 0;
  std::int64_t occupancy_factor = 0;
  SimTime completion_ns = 0;  ///< max processor clock at final barrier
  double seconds() const { return static_cast<double>(completion_ns) / 1e9; }
  RouteWorkStats work;
  std::vector<SimTime> proc_finish_ns;
  /// Per-processor streams; for_each_write_interval() visits the writes in
  /// time order and the reads between them.
  RefTrace trace;
  std::vector<WireRoute> routes;
  CostArray cost;  ///< final shared array
};

ShmRunResult run_shared_memory(const Circuit& circuit, const ShmConfig& config);

}  // namespace locus
