#include "route/router.hpp"

#include <cstdlib>
#include <limits>
#include <utility>

#include "support/assert.hpp"

namespace locus {

namespace {

/// Two-point connections for a multi-pin wire: either the classic chain of
/// x-adjacent pins, or a Prim minimum spanning tree over pin-to-pin
/// Manhattan distances (total tree length never exceeds the chain's).
std::vector<std::pair<std::size_t, std::size_t>> connection_pairs(
    const Wire& wire, Decomposition mode) {
  const std::size_t n = wire.pins.size();
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(n - 1);
  if (mode == Decomposition::kChainX || n == 2) {
    for (std::size_t i = 1; i < n; ++i) pairs.emplace_back(i - 1, i);
    return pairs;
  }
  auto distance = [&](std::size_t a, std::size_t b) {
    return static_cast<std::int64_t>(std::abs(wire.pins[a].x - wire.pins[b].x)) +
           std::abs(wire.pins[a].row - wire.pins[b].row);
  };
  std::vector<bool> in_tree(n, false);
  std::vector<std::int64_t> best(n, std::numeric_limits<std::int64_t>::max());
  std::vector<std::size_t> parent(n, 0);
  in_tree[0] = true;
  for (std::size_t j = 1; j < n; ++j) best[j] = distance(0, j);
  for (std::size_t added = 1; added < n; ++added) {
    std::size_t u = 0;
    std::int64_t u_dist = std::numeric_limits<std::int64_t>::max();
    for (std::size_t j = 1; j < n; ++j) {
      if (!in_tree[j] && best[j] < u_dist) {
        u_dist = best[j];
        u = j;
      }
    }
    LOCUS_ASSERT(u != 0);
    in_tree[u] = true;
    pairs.emplace_back(parent[u], u);
    for (std::size_t j = 1; j < n; ++j) {
      if (!in_tree[j] && distance(u, j) < best[j]) {
        best[j] = distance(u, j);
        parent[j] = u;
      }
    }
  }
  return pairs;
}

}  // namespace

std::int64_t WireRoute::cell_count() const {
  std::int64_t cells = 0;
  for (const RowRun& r : runs) cells += r.length();
  return cells;
}

Rect WireRoute::bbox() const {
  Rect box;
  for (const RowRun& r : runs) box.expand(Rect::of(r.channel, r.channel, r.x_lo, r.x_hi));
  return box;
}

WireRoute WireRouter::route_wire(const Wire& wire, CostView& view,
                                 RouteWorkStats& stats) const {
  LOCUS_ASSERT(wire.pins.size() >= 2);
  WireRoute out;
  out.wire = wire.id;
  out.connections.reserve(wire.pins.size() - 1);

  for (auto [a, b] : connection_pairs(wire, params_.decomposition)) {
    ExploreResult res = explore_connection(wire.pins[a], wire.pins[b], channels_,
                                           view, params_.explorer);
    stats.probes += res.stats.cells_probed;
    stats.routes_evaluated += res.stats.routes_evaluated;
    out.connections.push_back(std::move(res.route));
  }

  out.runs = collect_row_runs(out.connections);

  // Price the final (deduplicated) path at decision time: this is the
  // wire's occupancy-factor contribution, and each read is a probe. Each
  // run goes to the view's read tracer, if any, as the per-cell reads it
  // stands for.
  out.path_cost = price_runs(view, out.runs);
  if (ReadTracer* const tracer = view.read_tracer()) {
    for (const RowRun& r : out.runs) {
      tracer->read_run(GridPoint{r.channel, r.x_lo}, GridPoint{r.channel, r.x_hi});
    }
  }
  const std::int64_t cells = out.cell_count();
  stats.probes += cells;

  // Commit, one span write per run.
  add_runs(view, out.runs, +1);
  stats.cells_committed += cells;
  stats.wires_routed += 1;
  return out;
}

void WireRouter::rip_up(const WireRoute& route, CostView& view) {
  add_runs(view, route.runs, -1);
}

}  // namespace locus
