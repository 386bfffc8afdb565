// E15: the four MP update protocols priced on {mesh, torus, fat-tree} x
// {fixed, md1} per-link cost models, with the view-consistency checker
// and transport ledger asserted on every cell (ISSUE 10). The table bytes
// are pool-width independent, which scripts/verify.sh --bench diffs at
// --threads=1 vs 4.
#include "bench_main.hpp"
#include "harness/experiments.hpp"
#include "support/assert.hpp"

int main(int argc, char** argv) {
  locus::Circuit bnre = locus::make_bnre_like();
  return locus::benchmain::run(
      argc, argv, "Topology sweep: protocols x topologies x link cost models",
      {{"protocol x topology x cost model", [&] {
          locus::TopologySweepResult result = locus::run_topology_sweep(bnre);
          LOCUS_ASSERT_MSG(result.all_ok,
                           "a sweep cell failed consistency or the ledger");
          locus::benchmain::record("sweep_runs",
                                   static_cast<double>(result.runs));
          locus::benchmain::record("sweep_stalls",
                                   static_cast<double>(result.total_stalls));
          return std::move(result.table);
        }}});
}
