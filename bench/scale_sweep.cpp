// Nightly scale lane driver: the extended Table 6 sweep at configurable
// size. Defaults reproduce the acceptance point -- a 100k-wire hierarchical
// circuit routed to completion at 64 virtual processors -- and the CI
// workflow_dispatch inputs override via environment:
//   LOCUS_SCALE_WIRES  comma-separated wire counts   (default "100000")
//   LOCUS_SCALE_PROCS  comma-separated proc counts   (default "16,64")
//   LOCUS_SCALE_MODES  comma-separated assignment policies out of
//                      geo,dyn-fifo,dyn-local (default "geo")
//   LOCUS_SCALE_COST_MODEL  per-link timing discipline out of
//                      fixed,md1 (default "fixed")
// Runs with tiled views and region-batched updates (the configuration
// the scale tier exists to exercise). The table is the output; the exact
// figures of its 10k and 100k points are pinned in tests/test_scale.cpp.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiments.hpp"
#include "harness/sim_pool.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"

namespace {

/// Reads a comma-separated list of counts in 1..2^20; exits 2 on an entry
/// that is not one.
std::vector<std::int32_t> parse_list(const char* env, const char* fallback) {
  const char* raw = std::getenv(env);
  std::string s = raw != nullptr && raw[0] != '\0' ? raw : fallback;
  std::vector<std::int32_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string entry = s.substr(pos, comma - pos);
    pos = comma + 1;
    std::int32_t v = 0;
    const auto [end, ec] = std::from_chars(entry.data(), entry.data() + entry.size(), v);
    if (ec != std::errc() || end != entry.data() + entry.size() || v < 1 || v > (1 << 20)) {
      std::fprintf(stderr, "%s entry '%s' is not an integer in 1..%d\n", env,
                   entry.c_str(), 1 << 20);
      std::exit(2);
    }
    out.push_back(v);
  }
  return out;
}

std::vector<locus::ScaleAssignMode> parse_modes(const char* env) {
  const char* raw = std::getenv(env);
  std::string s = raw != nullptr && raw[0] != '\0' ? raw : "geo";
  std::vector<locus::ScaleAssignMode> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string name = s.substr(pos, comma - pos);
    pos = comma + 1;
    if (name == "geo") {
      out.push_back(locus::ScaleAssignMode::kGeographic);
    } else if (name == "dyn-fifo") {
      out.push_back(locus::ScaleAssignMode::kDynamicFifo);
    } else if (name == "dyn-local") {
      out.push_back(locus::ScaleAssignMode::kDynamicLocality);
    } else {
      std::fprintf(stderr, "unknown LOCUS_SCALE_MODES entry: %s\n",
                   name.c_str());
      std::exit(2);
    }
  }
  return out;
}

locus::LinkCostModelKind parse_cost_model(const char* env) {
  const char* raw = std::getenv(env);
  const std::string name = raw != nullptr && raw[0] != '\0' ? raw : "fixed";
  if (name == "fixed") return locus::LinkCostModelKind::kFixed;
  if (name == "md1") return locus::LinkCostModelKind::kMd1;
  std::fprintf(stderr, "unknown LOCUS_SCALE_COST_MODEL: %s\n", name.c_str());
  std::exit(2);
}

}  // namespace

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
  locus::ScaleSweepOptions options;
  options.wire_counts = parse_list("LOCUS_SCALE_WIRES", "100000");
  options.proc_counts = parse_list("LOCUS_SCALE_PROCS", "16,64");
  options.modes = parse_modes("LOCUS_SCALE_MODES");
  options.cost_model = parse_cost_model("LOCUS_SCALE_COST_MODEL");
  locus::Stopwatch sw;
  const locus::Table table = locus::run_scale_sweep(options).table;
  std::printf("=== Scale sweep: hierarchical circuits, sharded views ===\n\n%s"
              "\ntotal wall time: %.2fs\n",
              table.render().c_str(), sw.seconds());
  return 0;
}
