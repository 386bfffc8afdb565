// Tests for the extension models: Dragon write-update coherence, the bus
// occupancy estimate, and the NUMA reference-cost model.
#include <gtest/gtest.h>

#include "assign/assignment.hpp"
#include "circuit/generator.hpp"
#include "coherence/bus.hpp"
#include "coherence/simulator.hpp"
#include "shm/numa.hpp"
#include "shm/shm_router.hpp"

namespace locus {
namespace {

CoherenceSim make_dragon(std::int32_t line = 8) {
  CoherenceParams params;
  params.line_size = line;
  params.protocol = ProtocolKind::kDragon;
  return CoherenceSim(4, params);
}

TEST(Dragon, NeverInvalidates) {
  CoherenceSim sim = make_dragon();
  for (int i = 0; i < 100; ++i) {
    sim.access(i % 4, static_cast<std::uint32_t>((i * 12) % 64),
               i % 2 == 0 ? MemOp::kRead : MemOp::kWrite);
  }
  EXPECT_EQ(sim.traffic().invalidation_msgs, 0u);
  EXPECT_EQ(sim.traffic().refetch_bytes, 0u);
}

TEST(Dragon, SharedWriteBroadcastsWord) {
  CoherenceSim sim = make_dragon();
  sim.access(0, 0, MemOp::kRead);
  sim.access(1, 0, MemOp::kRead);
  std::uint64_t before = sim.traffic().total_bytes();
  sim.access(0, 0, MemOp::kWrite);
  EXPECT_EQ(sim.traffic().total_bytes(), before + 4);
  // Sharers keep their copies current: proc 1 re-reads for free.
  sim.access(1, 0, MemOp::kRead);
  EXPECT_EQ(sim.traffic().total_bytes(), before + 4);
}

TEST(Dragon, PrivateWriteIsFree) {
  CoherenceSim sim = make_dragon();
  sim.access(0, 0, MemOp::kRead);
  std::uint64_t before = sim.traffic().total_bytes();
  sim.access(0, 0, MemOp::kWrite);  // sole holder: no bus word
  EXPECT_EQ(sim.traffic().total_bytes(), before);
}

TEST(Dragon, TrafficFlatInLineSizeOnPingPong) {
  // The invalidate protocols pay line-sized flushes per handoff; Dragon
  // pays a word per shared write regardless of line size.
  for (std::int32_t line : {8, 32}) {
    CoherenceSim sim = make_dragon(line);
    sim.access(0, 0, MemOp::kRead);
    sim.access(1, 0, MemOp::kRead);
    std::uint64_t before = sim.traffic().total_bytes();
    for (int i = 0; i < 10; ++i) {
      sim.access(i % 2, 0, MemOp::kWrite);
    }
    EXPECT_EQ(sim.traffic().total_bytes() - before, 40u) << "line=" << line;
  }
}

TEST(Dragon, BeatsWbiOnRealTrace) {
  ShmConfig config;
  config.procs = 4;
  RefTrace trace = run_shared_memory(make_tiny_test_circuit(), config).trace;
  auto results =
      sweep_line_sizes(trace, 4, {8, 32}, ProtocolKind::kWriteBackInvalidate);
  auto dragon = sweep_line_sizes(trace, 4, {8, 32}, ProtocolKind::kDragon);
  EXPECT_LT(dragon[0].total_bytes(), results[0].total_bytes());
  // And the gap widens with line size (no refetch scaling).
  EXPECT_LT(dragon[1].total_bytes() * 2, results[1].total_bytes());
}

TEST(Bus, EstimateScalesWithTraffic) {
  CoherenceTraffic small;
  small.cold_fetch_bytes = 1000;
  small.read_misses = 10;
  CoherenceTraffic large = small;
  large.cold_fetch_bytes = 100000;
  large.read_misses = 1000;
  BusEstimate a = estimate_bus(small);
  BusEstimate b = estimate_bus(large);
  EXPECT_GT(b.busy_ns(), a.busy_ns());
  EXPECT_EQ(b.transactions, 1000u);
}

TEST(Bus, DataTimeMatchesBandwidth) {
  CoherenceTraffic t;
  t.cold_fetch_bytes = 40000;  // at 40 B/us -> 1000 us
  BusParams params;
  BusEstimate e = estimate_bus(t, params);
  EXPECT_EQ(e.data_ns, 1000000);
}

TEST(Bus, UtilizationAgainstSpan) {
  CoherenceTraffic t;
  t.cold_fetch_bytes = 40000;
  BusEstimate e = estimate_bus(t);
  EXPECT_NEAR(e.utilization(2000000), 0.5, 0.01);
  EXPECT_EQ(e.utilization(0), 0.0);
}

TEST(Numa, ClassifiesCounterToProcZero) {
  Partition part(4, 32, MeshShape{2, 2});
  RefTrace trace;
  trace.append({0, kLoopCounterAddr, 0, MemOp::kRead});
  trace.append({1, kLoopCounterAddr, 1, MemOp::kRead});
  NumaEstimate e = estimate_numa(trace, part);
  EXPECT_EQ(e.local_refs, 1u);
  EXPECT_EQ(e.remote_refs, 1u);
}

TEST(Numa, ClassifiesCostArrayByOwner) {
  Partition part(4, 32, MeshShape{2, 2});
  RefTrace trace;
  // Cell (channel 0, x 0) is owned by proc 0 (column-major addr 0).
  trace.append({0, cost_cell_addr(0, 0, 4), 0, MemOp::kRead});   // local
  trace.append({1, cost_cell_addr(0, 0, 4), 3, MemOp::kRead});   // remote
  // Cell (channel 3, x 31) is owned by proc 3.
  trace.append({2, cost_cell_addr(3, 31, 4), 3, MemOp::kWrite}); // local
  NumaEstimate e = estimate_numa(trace, part);
  EXPECT_EQ(e.local_refs, 2u);
  EXPECT_EQ(e.remote_refs, 1u);
}

TEST(Numa, MemoryTimeUsesBothRates) {
  Partition part(4, 32, MeshShape{2, 2});
  RefTrace trace;
  trace.append({0, cost_cell_addr(0, 0, 4), 0, MemOp::kRead});
  trace.append({1, cost_cell_addr(0, 0, 4), 3, MemOp::kRead});
  NumaParams params;
  params.local_ns = 100;
  params.remote_ns = 900;
  NumaEstimate e = estimate_numa(trace, part, params);
  EXPECT_EQ(e.memory_ns, 1000);
  EXPECT_DOUBLE_EQ(e.remote_fraction(), 0.5);
}

TEST(Numa, LocalityAssignmentLowersRemoteFraction) {
  Circuit circuit = make_bnre_like();
  const Partition partition(circuit.channels(), circuit.grids(),
                            MeshShape::for_procs(16));
  ShmConfig rr_config;
  rr_config.procs = 16;
  rr_config.assignment = assign_round_robin(circuit, 16);
  ShmConfig local_config = rr_config;
  local_config.assignment =
      assign_threshold_cost(circuit, partition, kThresholdInfinity);

  NumaEstimate rr = estimate_numa(run_shared_memory(circuit, rr_config).trace,
                                  partition);
  NumaEstimate local = estimate_numa(
      run_shared_memory(circuit, local_config).trace, partition);
  EXPECT_LT(local.remote_fraction(), rr.remote_fraction());
  // Round robin over 16 regions is ~15/16 remote by construction.
  EXPECT_NEAR(rr.remote_fraction(), 0.9375, 0.03);
}

}  // namespace
}  // namespace locus
