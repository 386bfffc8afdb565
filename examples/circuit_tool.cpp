// Circuit generation tool: writes the benchmark circuits (or a custom
// parameterization) to .ckt files and prints their statistics. The files
// under data/ were produced by this tool.
//
//   $ ./examples/circuit_tool --out=data            # bnrE-like + MDC-like
//   $ ./examples/circuit_tool --wires=100 --channels=6 --grids=120
//         (--seed=7 --out=. --name=custom ...)
#include <cstdio>
#include <stdexcept>
#include <string>

#include "circuit/generator.hpp"
#include "circuit/io.hpp"
#include "circuit/stats.hpp"
#include "support/cli.hpp"

namespace {

int run(const locus::Cli& cli) {
  auto emit = [&](const locus::Circuit& circuit, const std::string& file) {
    const std::string path = cli.get("out") + "/" + file;
    locus::write_circuit_file(path, circuit);
    std::printf("wrote %s\n  %s\n", path.c_str(), locus::describe(circuit).c_str());
  };

  if (cli.get("name").empty()) {
    emit(locus::make_bnre_like(), "bnre_like.ckt");
    emit(locus::make_mdc_like(), "mdc_like.ckt");
    return 0;
  }

  // The lower bounds are generate_circuit()'s preconditions.
  locus::GeneratorParams params;
  params.name = cli.get("name");
  params.num_wires = cli.get_bounded_int("wires", 1, 1 << 20);
  params.channels = cli.get_bounded_int("channels", 2, 1 << 20);
  params.grids = cli.get_bounded_int("grids", 8, 1 << 20);
  params.seed = cli.get_uint64("seed");
  emit(locus::generate_circuit(params), params.name + ".ckt");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  locus::Cli cli;
  cli.flag("out", "output directory", ".");
  cli.flag("name", "custom circuit name (empty: emit the two benchmarks)", "");
  cli.flag("wires", "custom circuit wire count", "100");
  cli.flag("channels", "custom circuit channels", "6");
  cli.flag("grids", "custom circuit routing grids", "120");
  cli.flag("seed", "custom circuit RNG seed", "1");
  if (!cli.parse(argc, argv)) return 1;
  try {
    return run(cli);
  } catch (const std::exception& e) {  // a bad count or seed, or an unwritable --out
    std::fprintf(stderr, "circuit_tool: %s\n", e.what());
    return 1;
  }
}
