// E15: the four MP update protocols priced on {mesh, torus, fat-tree} x
// {fixed, md1} per-link cost models, with the view-consistency checker
// and transport ledger checked on every cell; the binary prints the table
// and exits 1 when any cell fails. The table bytes are pool-width
// independent, which scripts/verify.sh --bench diffs at --threads=1 vs 4.
#include <cstdio>

#include "bench_main.hpp"
#include "harness/experiments.hpp"

int main(int argc, char** argv) {
  locus::Circuit bnre = locus::make_bnre_like();
  bool all_ok = true;
  const int status = locus::benchmain::run(
      argc, argv, "Topology sweep: protocols x topologies x link cost models",
      {{"protocol x topology x cost model", [&] {
          locus::TopologySweepResult result = locus::run_topology_sweep(bnre);
          all_ok = all_ok && result.all_ok;
          return std::move(result.table);
        }}});
  if (status == 0 && !all_ok) {
    std::fprintf(stderr, "FAIL: a sweep cell failed consistency or the ledger\n");
    return 1;
  }
  return status;
}
