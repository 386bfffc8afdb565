// E15: the four MP update protocols priced on {mesh, torus, fat-tree} x
// {fixed, md1} per-link cost models, with the view-consistency checker
// and transport ledger checked on every cell; the binary prints the table
// and exits 1 when any cell fails. The table bytes are pool-width
// independent, which scripts/verify.sh --bench diffs at --threads=1 vs 4.
#include <cstdio>
#include <stdexcept>

#include "circuit/generator.hpp"
#include "harness/experiments.hpp"
#include "harness/sim_pool.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  locus::Cli cli;
  cli.flag("threads",
           "worker threads for the sweep; table bytes are identical at any "
           "value (0: LOCUS_THREADS, else serial)",
           "0");
  if (!cli.parse(argc, argv)) return 1;
  try {
    locus::set_sim_threads(cli.get_bounded_int("threads", 0, 1024));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  locus::Stopwatch sw;
  const locus::TopologySweepResult result =
      locus::run_topology_sweep(locus::make_bnre_like());
  std::printf("=== Topology sweep: protocols x topologies x link cost models "
              "===\n\n%s\ntotal wall time: %.2fs\n",
              result.table.render().c_str(), sw.seconds());
  if (!result.all_ok) {
    std::fprintf(stderr, "FAIL: a sweep cell failed consistency or the ledger\n");
    return 1;
  }
  return 0;
}
