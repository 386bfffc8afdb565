// Quickstart: generate a bnrE-like circuit, route it sequentially, and print
// the quality metrics the paper reports (circuit height, occupancy factor).
//
//   $ ./examples/quickstart [--iterations=2]
#include <cstdio>
#include <stdexcept>

#include "circuit/generator.hpp"
#include "circuit/stats.hpp"
#include "route/render.hpp"
#include "route/sequential.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  locus::Cli cli;
  cli.flag("iterations", "routing iterations (rip-up and reroute passes)", "2");
  if (!cli.parse(argc, argv)) return 1;
  locus::SequentialParams params;
  try {
    params.iterations = cli.get_bounded_int("iterations", 1, 1 << 20);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 1;
  }

  locus::Circuit circuit = locus::make_bnre_like();
  std::printf("%s\n\n", locus::describe(circuit).c_str());

  locus::SequentialResult result = locus::route_sequential(circuit, params);

  std::printf("sequential LocusRoute, %d iteration(s):\n", params.iterations);
  std::printf("  circuit height   : %lld tracks\n",
              static_cast<long long>(result.circuit_height));
  std::printf("  occupancy factor : %lld\n",
              static_cast<long long>(result.occupancy_factor));
  std::printf("  cost-array probes: %lld\n",
              static_cast<long long>(result.work.probes));
  std::printf("  routes evaluated : %lld\n",
              static_cast<long long>(result.work.routes_evaluated));

  // A window of the final cost array, the paper's Figure 1 in ASCII:
  // digits are wires-per-cell, '.' is empty.
  std::printf("\ncost array, grids 0..79:\n%s",
              locus::render_cost_array(result.cost, 0, 79).c_str());
  return 0;
}
