// Shared scaffolding for the table-reproduction bench binaries: builds the
// benchmark circuits, prints a titled table (optionally as CSV with --csv),
// and reports wall time. Each binary reproduces one table/figure/section of
// the paper's evaluation; see DESIGN.md's experiment index.
//
// The wall times printed here are for the reader, not a regression gate:
// host time is measured by perfbench (BENCHMARK.json), which runs the
// parent and the change in alternating pairs on one host, and the exact
// simulated figures are pinned by ctest.
//
// --only=SUBSTRING restricts a run to the sections whose title contains the
// substring (case-sensitive) — e.g. `ablation_router --only=iteration` runs
// the convergence section alone.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "circuit/generator.hpp"
#include "harness/sim_pool.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace locus::benchmain {

struct Section {
  std::string title;
  std::function<Table()> build;
};

inline int run(int argc, char** argv, const std::string& heading,
               const std::vector<Section>& sections) {
  Cli cli;
  cli.flag("csv", "emit CSV instead of aligned tables", false);
  cli.flag("only", "run only sections whose title contains this substring",
           "");
  cli.flag("threads",
           "worker threads for the simulation fan-outs; table bytes are "
           "identical at any value (0: LOCUS_THREADS, else serial)",
           "0");
  if (!cli.parse(argc, argv)) return 1;
  const bool csv = cli.get_bool("csv");
  const std::string only = cli.get("only");
  set_sim_threads(static_cast<int>(cli.get_int("threads")));

  std::printf("=== %s ===\n", heading.c_str());
  Stopwatch total;
  for (const Section& section : sections) {
    if (!only.empty() && section.title.find(only) == std::string::npos) {
      continue;
    }
    Stopwatch sw;
    Table table = section.build();
    const double wall = sw.seconds();
    std::printf("\n-- %s (built in %.2fs) --\n", section.title.c_str(), wall);
    std::fputs((csv ? table.render_csv() : table.render()).c_str(), stdout);
  }
  std::printf("\ntotal wall time: %.2fs\n", total.seconds());
  return 0;
}

}  // namespace locus::benchmain
