#include "route/sequential.hpp"

#include "support/assert.hpp"

namespace locus {

SequentialResult route_sequential(const Circuit& circuit,
                                  const SequentialParams& params) {
  LOCUS_ASSERT(params.iterations >= 1);
  WireRouter router(circuit.channels(), params.router);

  SequentialResult result{
      .circuit_height = 0,
      .occupancy_factor = 0,
      .work = {},
      .cost = CostArray(circuit.channels(), circuit.grids()),
      .routes = {}};
  result.routes.resize(static_cast<std::size_t>(circuit.num_wires()));

  for (std::int32_t iter = 0; iter < params.iterations; ++iter) {
    const bool last = (iter + 1 == params.iterations);
    for (const Wire& wire : circuit.wires()) {
      WireRoute& slot = result.routes[static_cast<std::size_t>(wire.id)];
      if (slot.routed()) {
        WireRouter::rip_up(slot, result.cost);
        ++result.work.ripups;
      }
      slot = router.route_wire(wire, result.cost, result.work);
      if (last) {
        result.occupancy_factor += slot.path_cost;
      }
    }
  }

  result.circuit_height = circuit_height(result.cost);

  // Invariant: the incrementally maintained array equals a rebuild from the
  // final routes (rip-up exactly reversed every superseded commitment).
  LOCUS_ASSERT(result.cost ==
               rebuild_cost(circuit.channels(), circuit.grids(), result.routes));
  return result;
}

}  // namespace locus
