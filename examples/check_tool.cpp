// Fault-injection and differential-oracle checking tool.
//
// Runs the src/check subsystem from the command line: cross-check the
// sequential, shared memory, and message passing routers against each other
// (with network faults from a --faults spec, oracle mode only), sweep the
// fault classes or transport drop rates, scan the shm reference trace for
// unlocked write conflicts, or price the four MP update protocols on every
// topology x link cost model with the consistency checker and the
// transport ledger checked on each cell.
//
// Every checked sweep exits 1 when a row fails: a topology cell that is not
// ok, a fault plan the checkers misclassified (WRONG), a recovery row that
// diverged from its fault-free run (NO) or left the ledger IMBALANCED, and
// an oracle row that FAILs — unless a --faults plan was given, whose point
// is to make a router diverge.
//
//   $ ./examples/check_tool oracle --circuit=bnre --procs=4
//   $ ./examples/check_tool oracle --faults=drop:0.01,delay:500
//   $ ./examples/check_tool faults --circuit=tiny --procs=4
//   $ ./examples/check_tool recovery --circuit=tiny --procs=4
//   $ ./examples/check_tool scan --circuit=tiny --procs=16
//   $ ./examples/check_tool topology --circuit=bnre --procs=16
#include <cstdio>
#include <stdexcept>
#include <string>

#include "circuit/generator.hpp"
#include "harness/experiments.hpp"
#include "sim/fault.hpp"
#include "support/cli.hpp"

namespace {

int run(const locus::Cli& cli) {
  const std::string mode = cli.positional()[0];
  if (mode != "oracle" && mode != "faults" && mode != "recovery" && mode != "scan" &&
      mode != "topology") {
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 1;
  }
  const locus::Circuit circuit = locus::make_named_circuit(cli.get("circuit"));
  locus::ExperimentConfig config;
  config.procs = cli.get_bounded_int("procs", 1, 1 << 20);
  config.iterations = cli.get_bounded_int("iterations", 1, 1 << 20);
  // Every mode partitions the circuit over a config.procs mesh.
  static_cast<void>(locus::fitted_mesh(circuit, config.procs));

  std::optional<locus::FaultPlan> faults;
  if (!cli.get("faults").empty()) {
    if (mode != "oracle") {
      std::fprintf(stderr, "--faults applies to oracle mode only, not '%s'\n",
                   mode.c_str());
      return 1;
    }
    faults = locus::FaultPlan::parse(cli.get("faults"));
    if (!faults.has_value()) {
      std::fprintf(stderr, "bad --faults spec '%s'\n", cli.get("faults").c_str());
      return 1;
    }
    std::printf("faults: %s\n", faults->describe().c_str());
  }

  if (mode == "scan") {
    const locus::Table t = run_check_trace_scan(circuit, config);
    std::printf("trace conflict scan on %s, %d procs:\n%s", circuit.name().c_str(),
                config.procs, t.render().c_str());
    return 0;
  }
  locus::CheckedSweep sweep;
  const char* title = nullptr;
  if (mode == "oracle") {
    sweep = run_check_oracle(circuit, config, faults.has_value() ? &*faults : nullptr);
    title = "differential oracle";
  } else if (mode == "faults") {
    sweep = run_check_faults(circuit, config);
    title = "fault sweep";
  } else if (mode == "recovery") {
    sweep = run_fault_recovery_sweep(circuit, config);
    title = "transport recovery sweep";
  } else {
    sweep = run_topology_sweep(circuit, config);
    title = "topology sweep";
  }
  std::printf("%s on %s, %d procs:\n%s", title, circuit.name().c_str(), config.procs,
              sweep.table.render().c_str());
  if (!sweep.all_ok && !faults.has_value()) {
    std::fprintf(stderr, "FAIL: a %s row failed its check\n", title);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  locus::Cli cli;
  cli.flag("circuit", "bnre | mdc | tiny", "bnre");
  cli.flag("procs", "processors", "4");
  cli.flag("iterations", "routing iterations", "2");
  cli.flag("faults",
           "fault spec, e.g. drop:0.01,delay:500 or "
           "dup:0.1,types:2,seed:7 (oracle mode only)",
           "");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.positional().empty()) {
    std::fprintf(stderr, "usage: check_tool oracle|faults|recovery|scan|topology [flags]\n");
    return 1;
  }
  try {
    return run(cli);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "check_tool: %s\n", e.what());
    return 1;
  }
}
