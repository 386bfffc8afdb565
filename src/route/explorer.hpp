// Candidate route enumeration for one two-point connection.
//
// LocusRoute prices many alternative shapes for each connection against the
// cost array and keeps the cheapest (paper §3). We enumerate the classic
// locus shapes:
//   * single-channel routes: descend/ascend from each pin into a common
//     channel c (within the pins' channel range, widened by `channel_slack`)
//     and run horizontally — one candidate per c;
//   * Z-routes: run in channel c1, jog vertically at grid xj, finish in
//     channel c2 — candidates over (c1, c2, xj) with xj sampled at a stride
//     so enumeration cost stays bounded on long connections.
//
// Pricing loads the candidate window once via read_rows(), builds
// per-channel and per-column prefix sums of the clamped cost (or cost²,
// matching congestion_power), and prices each candidate in O(1) from sums
// plus junction corrections — O(c·span + c²·jog_samples) total. The result
// is bit-identical to probing every cell of every candidate with
// CostView::read() (the per-cell reference in tests/test_properties.cpp):
// same route, cost and stats. `cells_probed` stays defined as the number of
// cells such a per-cell pricer would touch: it is the router's unit of
// *simulated* compute time. In the shared memory build those cells are the
// reference trace, so when the view has a read_tracer() the explorer writes
// every candidate's cells through it, in enumeration order, as straight
// runs in Route::for_each_cell order.
#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "route/cost_view.hpp"
#include "route/path.hpp"

namespace locus {

struct ExplorerParams {
  /// Extra channels considered beyond the pins' own channel range.
  std::int32_t channel_slack = 1;
  /// Jog positions are sampled every max(1, |dx| / jog_samples) grids.
  std::int32_t jog_samples = 8;
  /// Cell price as a function of occupancy v: 1 -> v (the paper's linear
  /// sum), 2 -> v^2 (congestion-averse; spreads wires at the cost of
  /// wirelength). Higher powers penalize hot cells superlinearly.
  std::int32_t congestion_power = 1;

  /// Wider search: more channels and finer jog sampling. Costs ~3x probes.
  static ExplorerParams thorough() {
    ExplorerParams p;
    p.channel_slack = 2;
    p.jog_samples = 16;
    return p;
  }
};

struct ExploreStats {
  std::int64_t routes_evaluated = 0;
  std::int64_t cells_probed = 0;
};

struct ExploreResult {
  Route route;                  ///< cheapest candidate
  std::int64_t cost = 0;        ///< its priced cost at decision time
  ExploreStats stats;
};

/// Finds the cheapest route between two pins. `channels` is the circuit's
/// channel count (bounds the search range). Deterministic: ties keep the
/// first candidate in enumeration order. Writes the cells of every candidate
/// through `view.read_tracer()` when it is not null.
ExploreResult explore_connection(const Pin& a, const Pin& b, std::int32_t channels,
                                 CostView& view, const ExplorerParams& params);

}  // namespace locus
