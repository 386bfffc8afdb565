// Nightly scale lane driver: the extended Table 6 sweep at configurable
// size. Defaults reproduce the acceptance point -- a 100k-wire hierarchical
// circuit routed to completion at 64 virtual processors -- and the CI
// workflow_dispatch inputs override via environment:
//   LOCUS_SCALE_WIRES  comma-separated wire counts   (default "100000")
//   LOCUS_SCALE_PROCS  comma-separated proc counts   (default "16,64")
//   LOCUS_SCALE_MODES  comma-separated assignment policies out of
//                      geo,dyn-fifo,dyn-local (default "geo")
//   LOCUS_SCALE_COST_MODEL  per-link timing discipline out of
//                      fixed,md1,vc (default "fixed")
// Runs with tiled views and region-batched updates (the configuration
// the scale tier exists to exercise). The headline sim_route_rps counter
// reports the first listed mode, so existing baselines are unchanged when
// LOCUS_SCALE_MODES is unset.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_main.hpp"
#include "harness/experiments.hpp"

namespace {

std::vector<std::int32_t> parse_list(const char* env, const char* fallback) {
  const char* raw = std::getenv(env);
  std::string s = raw != nullptr && raw[0] != '\0' ? raw : fallback;
  std::vector<std::int32_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(
        static_cast<std::int32_t>(std::stol(s.substr(pos, comma - pos))));
    pos = comma + 1;
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
  if (name == "vc") return locus::LinkCostModelKind::kVc;
  std::fprintf(stderr, "unknown LOCUS_SCALE_COST_MODEL: %s\n", name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  locus::ScaleSweepOptions options;
  options.wire_counts = parse_list("LOCUS_SCALE_WIRES", "100000");
  options.proc_counts = parse_list("LOCUS_SCALE_PROCS", "16,64");
  options.modes = parse_modes("LOCUS_SCALE_MODES");
  options.cost_model = parse_cost_model("LOCUS_SCALE_COST_MODEL");
  return locus::benchmain::run(
      argc, argv, "Scale sweep: hierarchical circuits, sharded views",
      {{"procs x wires", [&] {
          locus::ScaleSweepResult result = locus::run_scale_sweep(options);
          locus::benchmain::record("sim_route_rps", result.headline_route_rps);
          locus::benchmain::record(
              "traffic_bytes",
              static_cast<double>(result.headline_traffic_bytes));
          locus::benchmain::record(
              "view_resident_bytes",
              static_cast<double>(result.headline_resident_bytes));
          // Per-mode counters for the largest combination, keyed by mode
          // name so a multi-mode lane can gate the dynamic-vs-geographic
          // ratios directly.
          for (const locus::ScaleModeMetrics& m : result.headline_modes) {
            const std::string prefix = locus::scale_assign_mode_name(m.mode);
            locus::benchmain::record(prefix + "_rps", m.route_rps);
            locus::benchmain::record(prefix + "_view_bytes",
                                     static_cast<double>(m.resident_bytes));
            locus::benchmain::record(prefix + "_routed_stddev",
                                     m.routed_stddev);
          }
          return std::move(result.table);
        }}});
}
