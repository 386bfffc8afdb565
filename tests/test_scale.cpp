// Scale-tier smoke tests (`ctest -L scale`): the nightly lane's proof that
// a 10k-wire hierarchical circuit routes to completion at 64 virtual
// processors with sharded views and region-batched updates. Heavier than
// the tier-1 suite, lighter than the 100k-wire acceptance run the scale
// bench performs; skipped in Debug builds where the unoptimized router
// would dominate the lane's time budget.
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
    EXPECT_FALSE(route.cells.empty()) << "wire " << route.wire;
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
  EXPECT_GT(result.headline_traffic_bytes, 0u);
  EXPECT_GT(result.headline_resident_bytes, 0);
  EXPECT_GT(result.headline_circuit_height, 0);
}

}  // namespace
}  // namespace locus
