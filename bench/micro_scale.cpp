// Scale-tier microbenchmark (ISSUE 8): the Table 6 sweep extended to
// hierarchical 10k-wire circuits at 16 and 64 virtual processors with
// tiled per-processor views and region-batched update packets.
//
// Counters (see bench_main.hpp conventions):
//   * route_rps            -- wall-clock wire routes per second across the
//                             sweep (gated, higher is better);
//   * traffic_bytes, view_resident_bytes, ckt_height -- deterministic run
//     products, exact-match gated: any drift means the routing or packet
//     byte model changed and the baseline must be re-recorded knowingly;
//   * unbatched_bytes / batched_bytes / batch_saving_x -- what region
//     batching buys on the same circuit;
//   * geo_sim_rps / dynlocal_sim_rps / *_view_bytes -- the ISSUE 9
//     acceptance point (100k wires, 256 virtual procs): locality-aware
//     dynamic scheduling vs the geographic baseline in simulated
//     routes/sec and peak sharded-view bytes. The rps counters are
//     simulated-time rates, so they are deterministic; the view bytes are
//     exact-match gated.
#include <cstdint>

#include "bench_main.hpp"
#include "circuit/hier_generator.hpp"
#include "harness/experiments.hpp"
#include "msg/driver.hpp"

namespace {

using namespace locus;

Table scale_sweep_section() {
  ScaleSweepOptions options;
  options.wire_counts = {10'000};
  options.proc_counts = {16, 64};
  Stopwatch sw;
  ScaleSweepResult result = run_scale_sweep(options);
  const double wall = sw.seconds();
  const double routed = 10'000.0 * options.iterations *
                        static_cast<double>(options.proc_counts.size());
  benchmain::record("route_rps", wall == 0.0 ? 0.0 : routed / wall);
  benchmain::record("traffic_bytes",
                    static_cast<double>(result.headline_traffic_bytes));
  benchmain::record("view_resident_bytes",
                    static_cast<double>(result.headline_resident_bytes));
  benchmain::record("ckt_height",
                    static_cast<double>(result.headline_circuit_height));
  return std::move(result.table);
}

MpRunResult run_once(const Circuit& circuit, std::int32_t procs, bool batched) {
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 10);
  config.shard.batch_updates = batched;
  // Batched blocks are cut per tile, so the tile shape sets batched_bytes;
  // 4x512 is the shape this section's baseline was recorded with.
  config.shard.tile = TileDims{4, 512};
  return run_message_passing(circuit, procs, config);
}

Table batch_traffic_section() {
  const Circuit circuit = make_scale_circuit(10'000, /*seed=*/0x5CA1EULL);
  const MpRunResult plain = run_once(circuit, 16, /*batched=*/false);
  const MpRunResult batched = run_once(circuit, 16, /*batched=*/true);
  benchmain::record("unbatched_bytes",
                    static_cast<double>(plain.bytes_transferred));
  benchmain::record("batched_bytes",
                    static_cast<double>(batched.bytes_transferred));
  benchmain::record("batch_saving_x",
                    batched.bytes_transferred == 0
                        ? 0.0
                        : static_cast<double>(plain.bytes_transferred) /
                              static_cast<double>(batched.bytes_transferred));
  Table t;
  t.column("packets", Align::kLeft).column("CktHt").column("MBytes")
      .column("Time(s)");
  const std::pair<const char*, const MpRunResult*> rows[] = {
      {"single bbox", &plain}, {"region batched", &batched}};
  for (const auto& [name, r] : rows) {
    t.row().cell(name).cell(static_cast<long long>(r->circuit_height))
        .cell(r->mbytes(), 3).cell(r->seconds(), 3);
  }
  return t;
}

Table dynamic_scheduling_section() {
  ScaleSweepOptions options;
  options.wire_counts = {100'000};
  options.proc_counts = {256};
  options.modes = {ScaleAssignMode::kGeographic,
                   ScaleAssignMode::kDynamicLocality};
  ScaleSweepResult result = run_scale_sweep(options);
  const ScaleModeMetrics* geo = nullptr;
  const ScaleModeMetrics* dyn = nullptr;
  for (const ScaleModeMetrics& m : result.headline_modes) {
    if (m.mode == ScaleAssignMode::kGeographic) geo = &m;
    if (m.mode == ScaleAssignMode::kDynamicLocality) dyn = &m;
  }
  if (geo != nullptr && dyn != nullptr) {
    benchmain::record("geo_sim_rps", geo->route_rps);
    benchmain::record("dynlocal_sim_rps", dyn->route_rps);
    benchmain::record("geo_view_bytes", static_cast<double>(geo->resident_bytes));
    benchmain::record("dynlocal_view_bytes",
                      static_cast<double>(dyn->resident_bytes));
    benchmain::record("dyn_speedup_x",
                      geo->route_rps == 0.0 ? 0.0
                                            : dyn->route_rps / geo->route_rps);
    benchmain::record("dyn_view_ratio_x",
                      geo->resident_bytes == 0
                          ? 0.0
                          : static_cast<double>(dyn->resident_bytes) /
                                static_cast<double>(geo->resident_bytes));
    benchmain::record("dynlocal_routed_stddev", dyn->routed_stddev);
  }
  return std::move(result.table);
}

}  // namespace

int main(int argc, char** argv) {
  return locus::benchmain::run(
      argc, argv, "Scale tier: sharded views, 10k-wire hierarchical circuits",
      {{"scale sweep (10k wires, 16/64 procs, sharded+batched)",
        scale_sweep_section},
       {"region batching traffic (10k wires, 16 procs)",
        batch_traffic_section},
       {"dynamic scheduling (100k wires, 256 procs, geo vs dyn-local)",
        dynamic_scheduling_section}});
}
