// Wire-level routing: decompose a (possibly multi-pin) wire into two-point
// connections, pick the cheapest candidate for each, and commit the union of
// covered cells to the cost view as row runs. Re-routing in a later
// iteration first rips the previous commitment up (paper §3).
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "geom/rect.hpp"
#include "route/cost_view.hpp"
#include "route/explorer.hpp"
#include "route/path.hpp"

namespace locus {

/// How a multi-pin wire decomposes into two-point connections.
enum class Decomposition : std::int8_t {
  /// Chain x-adjacent pins left to right (the simple classic).
  kChainX,
  /// Minimum spanning tree over pin-to-pin Manhattan distances: never
  /// longer than the chain, often shorter on pin clusters.
  kMst,
};

struct RouterParams {
  ExplorerParams explorer;
  Decomposition decomposition = Decomposition::kChainX;
};

/// The committed routing of one wire.
struct WireRoute {
  WireId wire = -1;
  /// One chosen route per x-adjacent pin pair.
  std::vector<Route> connections;
  /// The committed cells (each +1 in the array) as collect_row_runs()
  /// returns them: sorted by (channel, x_lo), maximal and disjoint. This is
  /// the wire's only stored cell list.
  std::vector<RowRun> runs;
  /// Priced cost of the final path at decision time — the wire's
  /// contribution to the occupancy factor (paper §3).
  std::int64_t path_cost = 0;

  bool routed() const { return !runs.empty(); }

  /// Number of committed cells: the sum of the run lengths.
  std::int64_t cell_count() const;

  /// Bounding box over committed cells, in O(runs).
  Rect bbox() const;

  /// Bit-identical routes: the fault-recovery invariant.
  friend bool operator==(const WireRoute&, const WireRoute&) = default;
};

/// Aggregate work counters; drive both reporting and the simulated time
/// model (probes are the unit of routing compute).
struct RouteWorkStats {
  std::int64_t probes = 0;
  std::int64_t routes_evaluated = 0;
  std::int64_t cells_committed = 0;
  std::int64_t wires_routed = 0;
  /// Previous commitments reversed before a re-route. rip_up() is static
  /// and stats-free, so each engine bumps this where it rips up.
  std::int64_t ripups = 0;

  RouteWorkStats& operator+=(const RouteWorkStats& other) {
    probes += other.probes;
    routes_evaluated += other.routes_evaluated;
    cells_committed += other.cells_committed;
    wires_routed += other.wires_routed;
    ripups += other.ripups;
    return *this;
  }
};

class WireRouter {
 public:
  WireRouter(std::int32_t channels, RouterParams params)
      : channels_(channels), params_(params) {}

  /// Prices candidates against `view`, commits the chosen cells (+1 each)
  /// and returns the route. Work counters accumulate into `stats`.
  WireRoute route_wire(const Wire& wire, CostView& view, RouteWorkStats& stats) const;

  /// Reverses a previous commitment (-1 on each committed cell).
  static void rip_up(const WireRoute& route, CostView& view);

  const RouterParams& params() const { return params_; }

 private:
  std::int32_t channels_;
  RouterParams params_;
};

}  // namespace locus
