#include "check/legality.hpp"

#include "route/path.hpp"

namespace locus {

namespace {

bool in_bounds(const Circuit& circuit, GridPoint p) {
  return p.channel >= 0 && p.channel < circuit.channels() && p.x >= 0 &&
         p.x < circuit.grids();
}

bool axis_aligned(const Segment& seg) {
  return seg.from.channel == seg.to.channel || seg.from.x == seg.to.x;
}

}  // namespace

LegalityReport check_route_legality(const Circuit& circuit,
                                    std::span<const WireRoute> routes) {
  LegalityReport report;
  for (WireId id = 0; id < circuit.num_wires(); ++id) {
    ++report.wires_checked;
    const Wire& wire = circuit.wire(id);
    if (static_cast<std::size_t>(id) >= routes.size() ||
        !routes[static_cast<std::size_t>(id)].routed()) {
      report.issues.push_back({id, "wire has no committed route"});
      continue;
    }
    const WireRoute& route = routes[static_cast<std::size_t>(id)];
    if (route.wire != id) {
      report.issues.push_back({id, "route slot holds a different wire id"});
      continue;
    }

    bool geometry_ok = true;
    for (const Route& connection : route.connections) {
      const auto& segments = connection.segments();
      for (std::size_t s = 0; s < segments.size(); ++s) {
        if (!axis_aligned(segments[s])) {
          report.issues.push_back({id, "segment is not axis-aligned"});
          geometry_ok = false;
        }
        if (s > 0 && segments[s - 1].to != segments[s].from) {
          report.issues.push_back({id, "segment chain is disconnected"});
          geometry_ok = false;
        }
        // An axis-aligned segment lies in bounds iff both its ends do.
        if (!in_bounds(circuit, segments[s].from) || !in_bounds(circuit, segments[s].to)) {
          report.issues.push_back({id, "segment outside the cost array"});
          geometry_ok = false;
        }
      }
    }
    if (!geometry_ok) continue;

    for (const RowRun& run : route.runs) {
      if (run.x_lo > run.x_hi || !in_bounds(circuit, GridPoint{run.channel, run.x_lo}) ||
          !in_bounds(circuit, GridPoint{run.channel, run.x_hi})) {
        report.issues.push_back({id, "committed run inverted or outside the cost array"});
        geometry_ok = false;
        break;
      }
      report.cells_checked += run.length();
    }
    if (!geometry_ok) continue;

    // The committed runs must be exactly the connections' covered cells as
    // sorted, maximal, disjoint runs — anything else means commit and
    // rip-up would not cancel, or a cell would be counted twice.
    if (route.runs != collect_row_runs(route.connections)) {
      report.issues.push_back({id, "runs differ from the connection union"});
      continue;
    }

    // Sorted disjoint runs (verified above) allow a binary-search pin
    // coverage test.
    for (const Pin& pin : wire.pins) {
      const GridPoint above{pin.channel_above(), pin.x};
      const GridPoint below{pin.channel_below(), pin.x};
      if (!covers(route.runs, above) && !covers(route.runs, below)) {
        report.issues.push_back({id, "pin not reached in either channel"});
        break;
      }
    }
  }
  return report;
}

}  // namespace locus
