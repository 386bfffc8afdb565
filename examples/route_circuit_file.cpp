// Route a circuit loaded from a .ckt file and print a routing report
// (track profile, quality metrics). If the file argument is omitted, a
// bundled bnrE-like circuit is generated, saved next to the output, and
// routed — so the example is runnable out of the box:
//
//   $ ./examples/route_circuit_file [circuit.ckt] [--iterations=2]
#include <cstdio>
#include <stdexcept>
#include <string>

#include "circuit/generator.hpp"
#include "circuit/io.hpp"
#include "circuit/stats.hpp"
#include "route/quality.hpp"
#include "route/sequential.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

int run(const locus::Cli& cli) {
  locus::SequentialParams params;
  params.iterations = cli.get_bounded_int("iterations", 1, 1 << 20);
  locus::Circuit circuit = [&] {
    if (!cli.positional().empty()) {
      return locus::read_circuit_file(cli.positional().front());
    }
    locus::Circuit generated = locus::make_bnre_like();
    locus::write_circuit_file(cli.get("save"), generated);
    std::printf("no input file given: generated %s and saved it to %s\n\n",
                generated.name().c_str(), cli.get("save").c_str());
    return generated;
  }();

  std::printf("%s\n\n", locus::describe(circuit).c_str());

  locus::SequentialResult result = locus::route_sequential(circuit, params);

  locus::Table report;
  report.column("channel").column("tracks required");
  auto profile = locus::track_profile(result.cost);
  for (std::size_t c = 0; c < profile.size(); ++c) {
    report.row().cell(c).cell(profile[c]);
  }
  std::fputs(report.render().c_str(), stdout);
  std::printf("circuit height: %lld tracks   occupancy factor: %lld\n",
              static_cast<long long>(result.circuit_height),
              static_cast<long long>(result.occupancy_factor));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  locus::Cli cli;
  cli.flag("iterations", "rip-up and reroute passes", "2");
  cli.flag("save", "where to save the generated circuit when no file is given",
           "generated.ckt");
  if (!cli.parse(argc, argv)) return 1;
  try {
    return run(cli);
  } catch (const std::exception& e) {  // a bad count, an unreadable or malformed file
    std::fprintf(stderr, "route_circuit_file: %s\n", e.what());
    return 1;
  }
}
