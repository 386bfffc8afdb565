// Tests for the message passing implementation: packet sizing, update
// propagation between nodes, suppression, blocking semantics, and full-run
// invariants on small circuits.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "circuit/generator.hpp"
#include "msg/driver.hpp"
#include "msg/packets.hpp"
#include "route/quality.hpp"
#include "route/sequential.hpp"

namespace locus {
namespace {

TEST(Packets, BoundingBoxBytes) {
  Rect box = Rect::of(0, 1, 0, 4);  // 10 cells
  EXPECT_EQ(update_packet_bytes(PacketStructure::kBoundingBox, box, true, 0, 100),
            kUpdateHeaderBytes + 10 * kAbsoluteBytesPerCell);
  EXPECT_EQ(update_packet_bytes(PacketStructure::kBoundingBox, box, false, 0, 100),
            kUpdateHeaderBytes + 10 * kDeltaBytesPerCell);
}

TEST(Packets, WholeRegionIgnoresBbox) {
  Rect box = Rect::single({0, 0});
  EXPECT_EQ(update_packet_bytes(PacketStructure::kWholeRegion, box, true, 0, 100),
            kUpdateHeaderBytes + 100 * kAbsoluteBytesPerCell);
}

TEST(Packets, WireBasedScalesWithSegments) {
  Rect box = Rect::of(0, 5, 0, 50);
  EXPECT_EQ(update_packet_bytes(PacketStructure::kWireBased, box, false, 7, 100),
            kUpdateHeaderBytes + 7 * kWireSegmentBytes);
}

TEST(Packets, RequestIsHeaderOnly) {
  EXPECT_EQ(request_packet_bytes(), kUpdateHeaderBytes);
}

TEST(Packets, EmptyBboxCostsHeaderOnly) {
  EXPECT_EQ(update_packet_bytes(PacketStructure::kBoundingBox, Rect::empty(), true,
                                0, 100),
            kUpdateHeaderBytes);
}

// The extended forms pinned to literal byte counts: header 16, transport
// frame 8, block rectangle 8, block count 2, cells 2 B absolute / 1 B delta.
TEST(Packets, BatchedUpdateBytes) {
  UpdateBlock a;
  a.bbox = Rect::of(0, 1, 0, 2);  // 6 cells
  UpdateBlock b;
  b.bbox = Rect::of(3, 3, 10, 13);  // 4 cells
  const UpdateBlock blocks[] = {a, b};
  EXPECT_EQ(batched_update_packet_bytes(blocks, true), 16 + 2 + 8 + 12 + 8 + 8);
  EXPECT_EQ(batched_update_packet_bytes(blocks, false), 16 + 2 + 8 + 6 + 8 + 4);
}

TEST(Packets, WireRequestBytes) {
  // Header + i32 completed + u16 region count + 2 B per region id.
  EXPECT_EQ(wire_request_packet_bytes(0), 22);
  EXPECT_EQ(wire_request_packet_bytes(3), 28);
}

TEST(Packets, GrantBytes) {
  // Single grant: header + i32 wire + i32 iteration.
  EXPECT_EQ(grant_packet_bytes(), 24);
  // Batched grant: header + u16 wire count + i32 iteration + 4 B per wire.
  EXPECT_EQ(batch_grant_packet_bytes(2), 30);
  EXPECT_EQ(batch_grant_packet_bytes(3), 34);
}

TEST(Packets, AckIsHeaderPlusTransportFrame) {
  EXPECT_EQ(ack_packet_bytes(), 24);
}

class MpRunTest : public ::testing::Test {
 protected:
  MpRunTest() : circuit_(make_tiny_test_circuit()) {}

  MpRunResult run(const UpdateSchedule& schedule, std::int32_t procs = 4,
                  std::int32_t iterations = 2) {
    MpConfig config;
    config.schedule = schedule;
    config.iterations = iterations;
    return run_message_passing(circuit_, procs, config);
  }

  Circuit circuit_;
};

TEST_F(MpRunTest, EveryWireRouted) {
  MpRunResult r = run(UpdateSchedule::sender(2, 5));
  ASSERT_EQ(r.routes.size(), static_cast<std::size_t>(circuit_.num_wires()));
  for (const WireRoute& route : r.routes) {
    EXPECT_TRUE(route.routed());
  }
  EXPECT_EQ(r.work.wires_routed, circuit_.num_wires() * 2);
}

TEST_F(MpRunTest, HeightMatchesRebuiltRoutes) {
  MpRunResult r = run(UpdateSchedule::sender(2, 5));
  EXPECT_EQ(r.circuit_height,
            circuit_height(circuit_.channels(), circuit_.grids(), r.routes));
}

TEST_F(MpRunTest, Deterministic) {
  MpRunResult a = run(UpdateSchedule::receiver(1, 3));
  MpRunResult b = run(UpdateSchedule::receiver(1, 3));
  EXPECT_EQ(a.circuit_height, b.circuit_height);
  EXPECT_EQ(a.occupancy_factor, b.occupancy_factor);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  EXPECT_EQ(a.completion_ns, b.completion_ns);
}

TEST_F(MpRunTest, NoUpdatesMeansNoTraffic) {
  UpdateSchedule silent;  // all periods zero
  MpRunResult r = run(silent);
  EXPECT_EQ(r.bytes_transferred, 0u);
  EXPECT_EQ(r.network.packets, 0u);
  // Quality still defined: every node routed on its own blind view.
  EXPECT_GT(r.circuit_height, 0);
}

TEST_F(MpRunTest, SingleProcessorNeedsNoNetwork) {
  MpRunResult r = run(UpdateSchedule::sender(1, 1), /*procs=*/1);
  EXPECT_EQ(r.bytes_transferred, 0u);
  // With one processor the view IS the truth: quality equals sequential.
  SequentialResult seq = route_sequential(circuit_, {});
  EXPECT_EQ(r.circuit_height, seq.circuit_height);
  EXPECT_EQ(r.occupancy_factor, seq.occupancy_factor);
}

TEST_F(MpRunTest, MoreFrequentSenderUpdatesMeanMoreTraffic) {
  MpRunResult frequent = run(UpdateSchedule::sender(1, 1));
  MpRunResult rare = run(UpdateSchedule::sender(8, 8));
  EXPECT_GT(frequent.bytes_transferred, rare.bytes_transferred);
}

TEST_F(MpRunTest, ReceiverTrafficBelowSender) {
  MpRunResult sender = run(UpdateSchedule::sender(2, 5));
  MpRunResult receiver = run(UpdateSchedule::receiver(2, 10));
  EXPECT_LT(receiver.bytes_transferred, sender.bytes_transferred);
}

TEST_F(MpRunTest, BlockingCostsTimeNotQuality) {
  MpRunResult nb = run(UpdateSchedule::receiver(1, 3, false));
  MpRunResult b = run(UpdateSchedule::receiver(1, 3, true));
  EXPECT_GE(b.completion_ns, nb.completion_ns);
  // Quality comparable (paper §5.1.3: "not worse").
  EXPECT_NEAR(static_cast<double>(b.circuit_height),
              static_cast<double>(nb.circuit_height),
              static_cast<double>(nb.circuit_height) * 0.25);
}

TEST_F(MpRunTest, RequestsGenerateResponses) {
  MpRunResult r = run(UpdateSchedule::receiver(1, 2));
  EXPECT_GT(r.requests_sent, 0);
  // Every ReqRmtData is answered; ReqLocData responses may be suppressed.
  EXPECT_GT(r.network.bytes_by_type.count(kMsgRspRmtData), 0u);
}

TEST_F(MpRunTest, SenderSchedulePopulatesBothTypes) {
  MpRunResult r = run(UpdateSchedule::sender(1, 1));
  EXPECT_GT(r.network.bytes_by_type.count(kMsgSendLocData), 0u);
  EXPECT_GT(r.network.bytes_by_type.count(kMsgSendRmtData), 0u);
  EXPECT_EQ(r.network.bytes_by_type.count(kMsgReqRmtData), 0u);
}

TEST_F(MpRunTest, SuppressionHappensOnCleanRegions) {
  // With very frequent SendLoc updates most periods find no changes in the
  // sender's own region, so suppression must trigger.
  MpRunResult r = run(UpdateSchedule::sender(0, 1));
  EXPECT_GT(r.updates_suppressed, 0);
}

TEST_F(MpRunTest, MoreIterationsMoreWork) {
  MpRunResult two = run(UpdateSchedule::sender(2, 5), 4, 2);
  MpRunResult four = run(UpdateSchedule::sender(2, 5), 4, 4);
  EXPECT_EQ(four.work.wires_routed, 2 * two.work.wires_routed);
  EXPECT_GT(four.completion_ns, two.completion_ns);
}

TEST_F(MpRunTest, PacketStructureChangesOnlyTraffic) {
  MpConfig bbox_config;
  bbox_config.schedule = UpdateSchedule::sender(2, 5);
  MpConfig region_config = bbox_config;
  region_config.packet_structure = PacketStructure::kWholeRegion;

  MpRunResult bbox = run_message_passing(circuit_, 4, bbox_config);
  MpRunResult region = run_message_passing(circuit_, 4, region_config);
  // Same information transferred => near-identical routing outcome (packet
  // sizes shift update arrival times slightly, so allow a small band)...
  EXPECT_NEAR(static_cast<double>(bbox.circuit_height),
              static_cast<double>(region.circuit_height), 3.0);
  // ...but whole-region packets cost more bytes (paper §4.3.1).
  EXPECT_GT(region.bytes_transferred, bbox.bytes_transferred);
}

TEST_F(MpRunTest, TorusShortensLatency) {
  MpConfig mesh_config;
  mesh_config.schedule = UpdateSchedule::sender(2, 5);
  MpConfig torus_config = mesh_config;
  torus_config.edges = Topology::Edges::kTorus;
  MpRunResult mesh = run_message_passing(circuit_, 4, mesh_config);
  MpRunResult torus = run_message_passing(circuit_, 4, torus_config);
  EXPECT_LE(torus.network.byte_hops, mesh.network.byte_hops);
}

/// Property sweep: invariants hold over a grid of schedules.
struct ScheduleCase {
  std::int32_t send_rmt, send_loc, req_loc, req_rmt;
  bool blocking;
};

// Without this, gtest prints the param as raw bytes, padding included, so
// the listed test names would change from build to build.
void PrintTo(const ScheduleCase& sc, std::ostream* os) {
  *os << "{" << sc.send_rmt << ", " << sc.send_loc << ", " << sc.req_loc << ", "
      << sc.req_rmt << (sc.blocking ? ", blocking}" : "}");
}

class MpScheduleProperty : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(MpScheduleProperty, RunInvariants) {
  const ScheduleCase& sc = GetParam();
  UpdateSchedule schedule;
  schedule.send_rmt_period = sc.send_rmt;
  schedule.send_loc_period = sc.send_loc;
  schedule.req_loc_requests = sc.req_loc;
  schedule.req_rmt_touches = sc.req_rmt;
  schedule.blocking_receiver = sc.blocking;

  Circuit circuit = make_tiny_test_circuit();
  MpConfig config;
  config.schedule = schedule;
  MpRunResult r = run_message_passing(circuit, 4, config);

  for (const WireRoute& route : r.routes) {
    ASSERT_TRUE(route.routed());
  }
  EXPECT_EQ(r.circuit_height,
            circuit_height(circuit.channels(), circuit.grids(), r.routes));
  EXPECT_GT(r.completion_ns, 0);
  EXPECT_GE(r.occupancy_factor, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, MpScheduleProperty,
    ::testing::Values(ScheduleCase{0, 0, 0, 0, false},
                      ScheduleCase{1, 1, 0, 0, false},
                      ScheduleCase{5, 10, 0, 0, false},
                      ScheduleCase{0, 3, 0, 0, false},
                      ScheduleCase{3, 0, 0, 0, false},
                      ScheduleCase{0, 0, 1, 2, false},
                      ScheduleCase{0, 0, 2, 5, false},
                      ScheduleCase{0, 0, 1, 2, true},
                      ScheduleCase{0, 0, 10, 8, true},
                      ScheduleCase{2, 5, 1, 3, false},
                      ScheduleCase{2, 5, 1, 3, true}),
    [](const ::testing::TestParamInfo<ScheduleCase>& param_info) {
      const ScheduleCase& sc = param_info.param;
      return "rmt" + std::to_string(sc.send_rmt) + "_loc" + std::to_string(sc.send_loc) +
             "_reqloc" + std::to_string(sc.req_loc) + "_reqrmt" +
             std::to_string(sc.req_rmt) + (sc.blocking ? "_blocking" : "");
    });

}  // namespace
}  // namespace locus
