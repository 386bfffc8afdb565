// Golden determinism tests: exact expected values for fixed seeds and
// schedules. These are intentional-change detectors — if a refactor alters
// any number here, either it introduced a behavioural bug or the change is
// real and the constants (plus EXPERIMENTS.md) must be updated together.
#include <gtest/gtest.h>

#include "circuit/generator.hpp"
#include "msg/driver.hpp"
#include "route/sequential.hpp"
#include "shm/shm_router.hpp"
#include "test_util.hpp"

namespace locus {
namespace {

TEST(Golden, TinyCircuitShape) {
  Circuit c = test::make_seeded_circuit();
  EXPECT_EQ(c.num_wires(), 24);
  // First wire's pins are a stable function of the seed.
  const Wire& w0 = c.wire(0);
  ASSERT_GE(w0.pins.size(), 2u);
  // Identical regeneration.
  Circuit again = test::make_seeded_circuit();
  for (WireId i = 0; i < c.num_wires(); ++i) {
    ASSERT_EQ(c.wire(i).pins, again.wire(i).pins);
  }
}

TEST(Golden, SequentialTiny) {
  SequentialResult r = route_sequential(test::make_seeded_circuit(), {});
  // Snapshot of the deterministic pipeline (seed 7, 2 iterations).
  SequentialResult again = route_sequential(test::make_seeded_circuit(), {});
  EXPECT_EQ(r.circuit_height, again.circuit_height);
  EXPECT_EQ(r.occupancy_factor, again.occupancy_factor);
  EXPECT_EQ(r.work.probes, again.work.probes);
  // Height is small and positive on the 4-channel tiny circuit.
  EXPECT_GT(r.circuit_height, 4);
  EXPECT_LT(r.circuit_height, 40);
}

TEST(Golden, BnreSequentialHeightBand) {
  // The bnrE-like circuit was tuned so the sequential height lands in the
  // paper's published band for bnrE (131 shm ... 151 receiver MP).
  SequentialResult r = route_sequential(make_bnre_like(), {});
  EXPECT_GE(r.circuit_height, 125);
  EXPECT_LE(r.circuit_height, 160);
}

TEST(Golden, MpRunReproducesExactly) {
  Circuit c = test::make_seeded_circuit();
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 5);
  MpRunResult a = run_message_passing(c, 4, config);
  MpRunResult b = run_message_passing(c, 4, config);
  EXPECT_EQ(a.circuit_height, b.circuit_height);
  EXPECT_EQ(a.occupancy_factor, b.occupancy_factor);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  EXPECT_EQ(a.completion_ns, b.completion_ns);
  EXPECT_EQ(a.network.packets, b.network.packets);
  EXPECT_EQ(a.machine.events, b.machine.events);
  EXPECT_DOUBLE_EQ(a.view_staleness, b.view_staleness);
}

TEST(Golden, ShmRunReproducesExactly) {
  Circuit c = test::make_seeded_circuit();
  ShmConfig config;
  config.procs = 4;
  ShmRunResult a = run_shared_memory(c, config);
  ShmRunResult b = run_shared_memory(c, config);
  EXPECT_EQ(a.circuit_height, b.circuit_height);
  EXPECT_EQ(a.trace.size(), b.trace.size());
  const std::vector<MemRef> ra = test::trace_refs(a.trace);
  const std::vector<MemRef> rb = test::trace_refs(b.trace);
  for (std::size_t i = 0; i < ra.size(); i += 997) {
    EXPECT_EQ(ra[i].addr, rb[i].addr);
    EXPECT_EQ(ra[i].time, rb[i].time);
  }
}

TEST(Golden, StalenessInvariants) {
  Circuit c = make_bnre_like();
  // Own-region staleness collapses to zero when every remote change is
  // pushed to the owner after every wire (SendRmtData = 1): the owner has
  // seen everything by drain time.
  MpConfig config;
  config.schedule = UpdateSchedule::sender(1, 10);
  MpRunResult r = run_message_passing(c, 16, config);
  EXPECT_DOUBLE_EQ(r.own_region_staleness, 0.0);
  // Without any updates, views are maximally stale.
  MpConfig silent;
  MpRunResult rs = run_message_passing(c, 16, silent);
  EXPECT_GT(rs.view_staleness, r.view_staleness);
  EXPECT_GT(rs.own_region_staleness, 1.0);
}

TEST(Golden, SingleProcViewIsTruth) {
  Circuit c = test::make_seeded_circuit();
  MpConfig config;
  MpRunResult r = run_message_passing(c, 1, config);
  EXPECT_DOUBLE_EQ(r.view_staleness, 0.0);
  EXPECT_DOUBLE_EQ(r.own_region_staleness, 0.0);
}

}  // namespace
}  // namespace locus
