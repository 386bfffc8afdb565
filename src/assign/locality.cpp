#include "assign/locality.hpp"

namespace locus {

double locality_measure(const std::vector<WireRoute>& routes,
                        const Assignment& assignment, const Partition& partition) {
  std::int64_t weighted = 0;
  std::int64_t cells = 0;
  for (const WireRoute& route : routes) {
    if (route.wire < 0 ||
        route.wire >= static_cast<WireId>(assignment.proc_of_wire.size())) {
      continue;
    }
    ProcId router_proc = assignment.proc_of_wire[static_cast<std::size_t>(route.wire)];
    if (router_proc < 0) continue;
    for (const RowRun& r : route.runs) {
      for (std::int32_t x = r.x_lo; x <= r.x_hi; ++x) {
        weighted += partition.hop_distance(router_proc,
                                           partition.owner(GridPoint{r.channel, x}));
      }
      cells += r.length();
    }
  }
  return cells == 0 ? 0.0 : static_cast<double>(weighted) / static_cast<double>(cells);
}

double locality_estimate(const Circuit& circuit, const Assignment& assignment,
                         const Partition& partition) {
  std::int64_t weighted = 0;
  std::int64_t cells = 0;
  for (const Wire& w : circuit.wires()) {
    ProcId router_proc = assignment.proc_of_wire[static_cast<std::size_t>(w.id)];
    if (router_proc < 0) continue;
    const Rect box = w.pin_bbox();
    for (std::int32_t c = box.channel_lo; c <= box.channel_hi; ++c) {
      for (std::int32_t x = box.x_lo; x <= box.x_hi; ++x) {
        weighted += partition.hop_distance(router_proc,
                                           partition.owner(GridPoint{c, x}));
        ++cells;
      }
    }
  }
  return cells == 0 ? 0.0 : static_cast<double>(weighted) / static_cast<double>(cells);
}

}  // namespace locus
