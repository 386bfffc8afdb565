// Tests for the dynamic wire-distribution schemes (paper §4.2): the wire
// queue protocol, iteration-boundary safety, and the polled-vs-interrupt
// latency story.
#include <gtest/gtest.h>

#include <stdexcept>

#include "check/consistency.hpp"
#include "circuit/generator.hpp"
#include "msg/driver.hpp"
#include "route/quality.hpp"

namespace locus {
namespace {

MpRunResult run_mode(const Circuit& circuit, WireAssignmentMode mode,
                     std::int32_t procs = 4, std::int32_t iterations = 2,
                     UpdateSchedule schedule = UpdateSchedule::sender(2, 5)) {
  MpConfig config;
  config.schedule = schedule;
  config.iterations = iterations;
  config.assignment_mode = mode;
  return run_message_passing(circuit, procs, config);
}

class DynamicAssignment : public ::testing::Test {
 protected:
  DynamicAssignment() : circuit_(make_tiny_test_circuit()) {}
  Circuit circuit_;
};

TEST_F(DynamicAssignment, PolledRoutesEveryWire) {
  MpRunResult r = run_mode(circuit_, WireAssignmentMode::kDynamicPolled);
  for (const WireRoute& route : r.routes) {
    EXPECT_TRUE(route.routed());
  }
  EXPECT_EQ(r.work.wires_routed, circuit_.num_wires() * 2);
  EXPECT_EQ(r.circuit_height,
            circuit_height(circuit_.channels(), circuit_.grids(), r.routes));
}

TEST_F(DynamicAssignment, InterruptRoutesEveryWire) {
  MpRunResult r = run_mode(circuit_, WireAssignmentMode::kDynamicInterrupt);
  for (const WireRoute& route : r.routes) {
    EXPECT_TRUE(route.routed());
  }
  EXPECT_EQ(r.work.wires_routed, circuit_.num_wires() * 2);
}

TEST_F(DynamicAssignment, Deterministic) {
  MpRunResult a = run_mode(circuit_, WireAssignmentMode::kDynamicPolled);
  MpRunResult b = run_mode(circuit_, WireAssignmentMode::kDynamicPolled);
  EXPECT_EQ(a.circuit_height, b.circuit_height);
  EXPECT_EQ(a.completion_ns, b.completion_ns);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
}

TEST_F(DynamicAssignment, RequestGrantTrafficPresent) {
  MpRunResult r = run_mode(circuit_, WireAssignmentMode::kDynamicPolled, 4, 2,
                           UpdateSchedule{});  // no updates: queue traffic only
  EXPECT_GT(r.network.bytes_by_type.count(kMsgWireRequest), 0u);
  EXPECT_GT(r.network.bytes_by_type.count(kMsgWireGrant), 0u);
  // Every worker wire costs one request + one grant; the master's own wires
  // cost none. Workers also get a final "no more" grant each.
  EXPECT_GE(r.requests_sent, circuit_.num_wires());
}

TEST_F(DynamicAssignment, InterruptNotSlowerThanPolled) {
  MpRunResult polled = run_mode(circuit_, WireAssignmentMode::kDynamicPolled);
  MpRunResult interrupt = run_mode(circuit_, WireAssignmentMode::kDynamicInterrupt);
  EXPECT_LE(interrupt.completion_ns, polled.completion_ns);
}

TEST_F(DynamicAssignment, PolledSlowdownVisibleOnRealCircuit) {
  // The paper's §4.2 concern: with polled servicing "a processor may have
  // to wait for an entire wire to be routed" per request. On the bnrE-like
  // circuit that costs a clearly visible fraction of the run.
  Circuit bnre = make_bnre_like();
  MpRunResult statico = run_mode(bnre, WireAssignmentMode::kStatic, 16);
  MpRunResult polled = run_mode(bnre, WireAssignmentMode::kDynamicPolled, 16);
  MpRunResult interrupt =
      run_mode(bnre, WireAssignmentMode::kDynamicInterrupt, 16);
  EXPECT_GT(polled.completion_ns, statico.completion_ns * 5 / 4);
  EXPECT_LT(interrupt.completion_ns, polled.completion_ns * 4 / 5);
}

TEST_F(DynamicAssignment, IterationBoundaryKeepsRoutesConsistent) {
  // Four iterations force three rollovers; the grant protocol must never
  // hand a wire to two processors across a boundary (the run driver's
  // truth == rebuild assertion would abort if it did).
  MpRunResult r = run_mode(circuit_, WireAssignmentMode::kDynamicPolled, 4, 4);
  EXPECT_EQ(r.work.wires_routed, circuit_.num_wires() * 4);
  EXPECT_EQ(r.circuit_height,
            circuit_height(circuit_.channels(), circuit_.grids(), r.routes));
}

TEST_F(DynamicAssignment, WorksWithoutAnyUpdates) {
  MpRunResult r = run_mode(circuit_, WireAssignmentMode::kDynamicInterrupt, 4, 2,
                           UpdateSchedule{});
  for (const WireRoute& route : r.routes) {
    EXPECT_TRUE(route.routed());
  }
}

TEST_F(DynamicAssignment, SingleIterationWorks) {
  MpRunResult r = run_mode(circuit_, WireAssignmentMode::kDynamicPolled, 4, 1);
  EXPECT_EQ(r.work.wires_routed, circuit_.num_wires());
}

TEST_F(DynamicAssignment, TwoProcessorsWork) {
  MpRunResult r = run_mode(circuit_, WireAssignmentMode::kDynamicPolled, 2);
  EXPECT_EQ(r.work.wires_routed, circuit_.num_wires() * 2);
}

TEST_F(DynamicAssignment, ReceiverScheduleRejected) {
  MpConfig config;
  config.schedule = UpdateSchedule::receiver(1, 5);
  config.assignment_mode = WireAssignmentMode::kDynamicPolled;
  EXPECT_THROW(run_message_passing(circuit_, 4, config), std::invalid_argument);
}

// --- Extended dynamic protocol (DESIGN.md §11): locality-scored batched
// grants. ---

MpRunResult run_ext(const Circuit& circuit, const DynamicScheduleConfig& dyn,
                    std::int32_t procs = 4, std::int32_t iterations = 2,
                    UpdateSchedule schedule = UpdateSchedule::sender(2, 5)) {
  MpConfig config;
  config.schedule = schedule;
  config.iterations = iterations;
  config.assignment_mode = WireAssignmentMode::kDynamicInterrupt;
  config.dynamic = dyn;
  return run_message_passing(circuit, procs, config);
}

TEST_F(DynamicAssignment, DefaultConfigKeepsLegacyProtocol) {
  EXPECT_FALSE(DynamicScheduleConfig{}.extended_protocol());
  MpRunResult r = run_mode(circuit_, WireAssignmentMode::kDynamicPolled);
  // Single-wire requests are header-only.
  const KindTraffic& requests = r.sent_by_kind[msg_kind_index(kMsgWireRequest)];
  EXPECT_EQ(requests.bytes, requests.packets * request_packet_bytes());
  EXPECT_EQ(r.requests_sent, static_cast<std::int64_t>(requests.packets));
  // Every grant packet counts. Each of the three workers gets one wire per
  // grant and a final empty no-more grant, and asks once per grant.
  EXPECT_EQ(r.grants_issued, static_cast<std::int64_t>(
                                 r.sent_by_kind[msg_kind_index(kMsgWireGrant)].packets));
  EXPECT_EQ(r.grant_wires, r.grants_issued - 3);
  EXPECT_EQ(r.requests_sent, r.grants_issued);
  EXPECT_EQ(r.grant_wires,
            r.work.wires_routed - r.routed_per_proc.front());
  EXPECT_EQ(r.affinity_grants, 0);
}

TEST_F(DynamicAssignment, LocalityPolicyRoutesEveryWire) {
  DynamicScheduleConfig dyn;
  dyn.policy = GrantPolicy::kLocality;
  MpRunResult r = run_ext(circuit_, dyn);
  for (const WireRoute& route : r.routes) {
    EXPECT_TRUE(route.routed());
  }
  EXPECT_EQ(r.work.wires_routed, circuit_.num_wires() * 2);
  EXPECT_GT(r.grants_issued, 0);
  EXPECT_EQ(r.circuit_height,
            circuit_height(circuit_.channels(), circuit_.grids(), r.routes));
}

TEST_F(DynamicAssignment, BatchedGrantsReduceSchedulingRoundTrips) {
  Circuit bnre = make_bnre_like();
  DynamicScheduleConfig single;
  single.policy = GrantPolicy::kLocality;
  DynamicScheduleConfig batched = single;
  batched.grant_batch = 8;
  MpRunResult one = run_ext(bnre, single, 16);
  MpRunResult eight = run_ext(bnre, batched, 16);
  EXPECT_EQ(one.work.wires_routed, eight.work.wires_routed);
  // Multi-wire grants mean far fewer grant packets for the same wire count.
  EXPECT_LT(eight.grants_issued, one.grants_issued);
  EXPECT_LT(eight.requests_sent, one.requests_sent);
  EXPECT_GT(eight.grant_wires, eight.grants_issued);
}

TEST_F(DynamicAssignment, BatchesNeverStraddleIterationBoundaries) {
  DynamicScheduleConfig dyn;
  dyn.policy = GrantPolicy::kLocality;
  dyn.grant_batch = 4;
  MpRunResult r = run_ext(circuit_, dyn, 4, 4);
  // Four iterations force three rollovers; the driver's truth == rebuild
  // assertion aborts if a batch leaks a wire across a boundary.
  EXPECT_EQ(r.work.wires_routed, circuit_.num_wires() * 4);
  EXPECT_EQ(r.circuit_height,
            circuit_height(circuit_.channels(), circuit_.grids(), r.routes));
}

TEST_F(DynamicAssignment, ShardedLocalityProducesAffinityGrants) {
  Circuit bnre = make_bnre_like();
  DynamicScheduleConfig dyn;
  dyn.policy = GrantPolicy::kLocality;
  dyn.grant_batch = 4;
  MpRunResult r = run_ext(bnre, dyn, 16);
  EXPECT_EQ(r.work.wires_routed, bnre.num_wires() * 2);
  // With tiled views the resident summaries are sparse and meaningful, and
  // some grants must come from a requester-resident bucket.
  EXPECT_GT(r.affinity_grants, 0);
}

TEST_F(DynamicAssignment, LocalityRadiusRoutesEveryWire) {
  // A roam radius refuses distant requesters (they park until the iteration
  // rolls over) but must never lose a wire or deadlock: a bucket's home
  // worker is always within radius of it.
  Circuit bnre = make_bnre_like();
  DynamicScheduleConfig dyn;
  dyn.policy = GrantPolicy::kLocality;
  dyn.grant_batch = 4;
  dyn.locality_radius = 1;
  MpRunResult a = run_ext(bnre, dyn, 16);
  EXPECT_EQ(a.work.wires_routed, bnre.num_wires() * 2);
  EXPECT_EQ(a.circuit_height,
            circuit_height(bnre.channels(), bnre.grids(), a.routes));
  MpRunResult b = run_ext(bnre, dyn, 16);
  EXPECT_EQ(a.completion_ns, b.completion_ns);
  EXPECT_EQ(a.routed_per_proc, b.routed_per_proc);
}

TEST_F(DynamicAssignment, ExtendedProtocolDeterministic) {
  Circuit bnre = make_bnre_like();
  DynamicScheduleConfig dyn;
  dyn.policy = GrantPolicy::kLocality;
  dyn.grant_batch = 8;
  MpRunResult a = run_ext(bnre, dyn, 16);
  MpRunResult b = run_ext(bnre, dyn, 16);
  EXPECT_EQ(a.completion_ns, b.completion_ns);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  EXPECT_EQ(a.circuit_height, b.circuit_height);
  EXPECT_EQ(a.grants_issued, b.grants_issued);
  EXPECT_EQ(a.grant_wires, b.grant_wires);
  EXPECT_EQ(a.affinity_grants, b.affinity_grants);
  EXPECT_EQ(a.routed_per_proc, b.routed_per_proc);
}

TEST_F(DynamicAssignment, SchedulingTrafficKeepsViewsConsistent) {
  ViewConsistencyChecker checker;
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 2);
  config.assignment_mode = WireAssignmentMode::kDynamicInterrupt;
  config.dynamic.policy = GrantPolicy::kLocality;
  config.dynamic.grant_batch = 4;
  config.observer = &checker;
  run_message_passing(make_bnre_like(), 16, config);
  EXPECT_TRUE(checker.report().consistent());
  EXPECT_TRUE(checker.report().converged());
}

TEST_F(DynamicAssignment, ExtendedProtocolUnderReliableTransport) {
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 5);
  config.assignment_mode = WireAssignmentMode::kDynamicInterrupt;
  config.dynamic.policy = GrantPolicy::kLocality;
  config.dynamic.grant_batch = 4;
  config.transport.enabled = true;  // finalize() asserts the ledger balances
  MpRunResult r = run_message_passing(circuit_, 4, config);
  for (const WireRoute& route : r.routes) {
    EXPECT_TRUE(route.routed());
  }
  EXPECT_GT(r.transport.data_packets, 0u);
}

TEST(TimeBreakdownTest, FractionsAddUp) {
  Circuit circuit = make_tiny_test_circuit();
  MpConfig config;
  config.schedule = UpdateSchedule::sender(1, 1);
  MpRunResult r = run_message_passing(circuit, 4, config);
  const TimeBreakdown& tb = r.time_breakdown;
  EXPECT_GT(tb.routing_ns, 0);
  EXPECT_GT(tb.msg_software_ns, 0);
  EXPECT_GT(tb.network_copy_ns, 0);
  EXPECT_EQ(tb.busy_ns(), tb.routing_ns + tb.msg_software_ns + tb.network_copy_ns);
  EXPECT_GT(tb.message_fraction(), 0.0);
  EXPECT_LT(tb.message_fraction(), 1.0);
}

TEST(TimeBreakdownTest, MessageShareGrowsWithUpdateFrequency) {
  // The §5.1.1 claim: assembly/disassembly reaches up to ~25% of processing
  // time at frequent updates and shrinks as updates get rarer.
  Circuit circuit = make_bnre_like();
  MpConfig frequent;
  frequent.schedule = UpdateSchedule::sender(1, 1);
  MpConfig rare;
  rare.schedule = UpdateSchedule::sender(10, 20);
  MpRunResult rf = run_message_passing(circuit, 16, frequent);
  MpRunResult rr = run_message_passing(circuit, 16, rare);
  EXPECT_GT(rf.time_breakdown.message_fraction(),
            rr.time_breakdown.message_fraction());
  EXPECT_GT(rf.time_breakdown.message_fraction(), 0.15);
  EXPECT_LT(rf.time_breakdown.message_fraction(), 0.35);
}

}  // namespace
}  // namespace locus
