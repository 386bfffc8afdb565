// Scale-tier smoke tests (`ctest -L scale`): the nightly lane's proof that
// a 10k-wire hierarchical circuit routes to completion at 64 virtual
// processors with sharded views and region-batched updates, with the exact
// traffic, view memory and height of the 10k sweep and of region batching
// pinned. Skipped in Debug builds, where the unoptimized router would
// dominate the lane's time budget.
//
// The 100k-wire / 256-proc dynamic scheduling point takes about half a
// minute in Release, so it is DISABLED_ here and only the scale lane runs
// it, with --gtest_also_run_disabled_tests.
#include <gtest/gtest.h>

#include <cstdint>

#include "circuit/hier_generator.hpp"
#include "harness/experiments.hpp"
#include "msg/driver.hpp"

namespace locus {
namespace {

TEST(ScaleSmoke, TenKWiresAt64ProcsRoutesToCompletion) {
#ifndef NDEBUG
  GTEST_SKIP() << "Release-only: 10k-wire routing is a scale-lane smoke";
#endif
  const Circuit circuit = make_scale_circuit(10'000, /*seed=*/0x5CA1EULL);
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 10);
  config.shard.batch_updates = true;
  const MpRunResult r = run_message_passing(circuit, /*procs=*/64, config);
  EXPECT_EQ(static_cast<std::int32_t>(r.routes.size()), circuit.num_wires());
  for (const WireRoute& route : r.routes) {
    EXPECT_TRUE(route.routed()) << "wire " << route.wire;
  }
  EXPECT_GT(r.circuit_height, 0);
  EXPECT_GT(r.completion_ns, 0);
  EXPECT_GT(r.bytes_transferred, 0u);
  // The tiled views must actually be sparse: total resident cells stay
  // below what 64 dense views would allocate.
  const std::int64_t dense_cells = std::int64_t{64} * circuit.channels() *
                                   circuit.grids();
  EXPECT_GT(r.view_resident_cells, 0);
  EXPECT_LT(r.view_resident_cells, dense_cells);
}

TEST(ScaleSmoke, SweepCovers16To64Procs) {
#ifndef NDEBUG
  GTEST_SKIP() << "Release-only: 10k-wire routing is a scale-lane smoke";
#endif
  ScaleSweepOptions options;
  options.wire_counts = {10'000};
  options.proc_counts = {16, 64};
  const ScaleSweepResult result = run_scale_sweep(options);
  EXPECT_GT(result.headline_route_rps, 0.0);
  EXPECT_EQ(result.headline_traffic_bytes, 17'474'528u);
  EXPECT_EQ(result.headline_resident_bytes, 9'731'072);
  EXPECT_EQ(result.headline_circuit_height, 2799);
}

// Region batching on the 10k-wire circuit at 16 procs, sender(2, 10).
// Batched blocks are cut per tile, so the 4x512 tile shape sets the
// batched bytes.
TEST(ScaleSmoke, RegionBatchingTrafficAt16Procs) {
#ifndef NDEBUG
  GTEST_SKIP() << "Release-only: 10k-wire routing is a scale-lane smoke";
#endif
  const Circuit circuit = make_scale_circuit(10'000, /*seed=*/0x5CA1EULL);
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 10);
  config.shard.tile = TileDims{4, 512};
  const MpRunResult plain = run_message_passing(circuit, 16, config);
  config.shard.batch_updates = true;
  const MpRunResult batched = run_message_passing(circuit, 16, config);
  EXPECT_EQ(plain.bytes_transferred, 65'728'455u);
  EXPECT_EQ(batched.bytes_transferred, 45'300'027u);
}

// Locality-aware dynamic scheduling against the geographic baseline at
// 100k wires and 256 procs: simulated routes/sec, peak sharded-view bytes
// and the dynamic run's per-processor routed-wire spread.
TEST(ScaleSmoke, DISABLED_DynamicLocality100kWiresAt256Procs) {
  ScaleSweepOptions options;
  options.wire_counts = {100'000};
  options.proc_counts = {256};
  options.modes = {ScaleAssignMode::kGeographic, ScaleAssignMode::kDynamicLocality};
  const ScaleSweepResult result = run_scale_sweep(options);
  ASSERT_EQ(result.headline_modes.size(), 2u);
  const ScaleModeMetrics& geo = result.headline_modes[0];
  const ScaleModeMetrics& dyn = result.headline_modes[1];
  ASSERT_EQ(geo.mode, ScaleAssignMode::kGeographic);
  ASSERT_EQ(dyn.mode, ScaleAssignMode::kDynamicLocality);
  EXPECT_EQ(geo.resident_bytes, 195'113'984);
  EXPECT_EQ(dyn.resident_bytes, 230'700'032);
  // Simulated rates and a spread of exact integers, so exact doubles.
  EXPECT_EQ(geo.route_rps, 25.514340835615638);
  EXPECT_EQ(dyn.route_rps, 41.72706109353652);
  EXPECT_EQ(dyn.routed_stddev, 822.89095476709429);
}

}  // namespace
}  // namespace locus
