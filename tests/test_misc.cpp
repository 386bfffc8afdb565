// Coverage for the remaining small pieces: logging, stopwatch, the time
// model arithmetic, schedule factories, and packet-size helpers.
#include <gtest/gtest.h>

#include <thread>

#include "msg/config.hpp"
#include "msg/packets.hpp"
#include "route/cost_model.hpp"
#include "sim/network.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"

namespace locus {
namespace {

TEST(Log, ThresholdGatesLevels) {
  LogLevel saved = Log::threshold();
  Log::threshold() = LogLevel::kWarn;
  EXPECT_FALSE(Log::enabled(LogLevel::kDebug));
  EXPECT_FALSE(Log::enabled(LogLevel::kInfo));
  EXPECT_TRUE(Log::enabled(LogLevel::kWarn));
  EXPECT_TRUE(Log::enabled(LogLevel::kError));
  Log::threshold() = LogLevel::kOff;
  EXPECT_FALSE(Log::enabled(LogLevel::kError));
  Log::threshold() = saved;
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double t = sw.seconds();
  EXPECT_GE(t, 0.015);
  EXPECT_LT(t, 5.0);
  sw.reset();
  EXPECT_LT(sw.seconds(), 0.015);
}

TEST(TimeModel, RoutingTimeIsLinear) {
  constexpr std::int64_t probe = TimeModel::kProbeNs;
  constexpr std::int64_t commit = TimeModel::kCommitNs;
  constexpr std::int64_t wire = TimeModel::kWireFixedNs;
  EXPECT_EQ(TimeModel::routing_time_ns(0, 0, 0), 0);
  EXPECT_EQ(TimeModel::routing_time_ns(5, 2, 1), 5 * probe + 2 * commit + wire);
  EXPECT_EQ(TimeModel::routing_time_ns(5, 2, 2), 5 * probe + 2 * commit + 2 * wire);
}

TEST(TimeModel, PaperNetworkConstants) {
  EXPECT_EQ(kHopTimeNs, 100);       // paper §2.1
  EXPECT_EQ(kProcessTimeNs, 2000);  // paper §2.1
}

TEST(UpdateScheduleFactories, SenderEnablesOnlySenderSide) {
  UpdateSchedule s = UpdateSchedule::sender(3, 7);
  EXPECT_EQ(s.send_rmt_period, 3);
  EXPECT_EQ(s.send_loc_period, 7);
  EXPECT_TRUE(s.sender_enabled());
  EXPECT_FALSE(s.receiver_enabled());
  EXPECT_FALSE(s.blocking_receiver);
}

TEST(UpdateScheduleFactories, ReceiverEnablesOnlyReceiverSide) {
  UpdateSchedule s = UpdateSchedule::receiver(2, 9, true);
  EXPECT_EQ(s.req_loc_requests, 2);
  EXPECT_EQ(s.req_rmt_touches, 9);
  EXPECT_TRUE(s.receiver_enabled());
  EXPECT_FALSE(s.sender_enabled());
  EXPECT_TRUE(s.blocking_receiver);
  EXPECT_EQ(s.request_lookahead, 5);  // the paper's "five wires at a time"
}

TEST(UpdateScheduleFactories, EmptyScheduleDisablesEverything) {
  UpdateSchedule s;
  EXPECT_FALSE(s.sender_enabled());
  EXPECT_FALSE(s.receiver_enabled());
}

TEST(PacketsMisc, GrantBiggerThanRequest) {
  EXPECT_GT(grant_packet_bytes(), request_packet_bytes());
  EXPECT_EQ(request_packet_bytes(), kUpdateHeaderBytes);
}

TEST(PacketsMisc, AbsolutePayloadDominatesDelta) {
  Rect box = Rect::of(0, 3, 0, 9);  // 40 cells
  std::int32_t absolute = update_packet_bytes(PacketStructure::kBoundingBox, box,
                                              true, 0, 0);
  std::int32_t delta = update_packet_bytes(PacketStructure::kBoundingBox, box,
                                           false, 0, 0);
  EXPECT_EQ(absolute - kUpdateHeaderBytes, 2 * (delta - kUpdateHeaderBytes));
}

TEST(ExperimentDefaults, MatchThePaperSetup) {
  // 16 processors, two iterations — the configuration all §5 tables use.
  MpConfig mp;
  EXPECT_EQ(mp.iterations, 2);
  EXPECT_EQ(mp.packet_structure, PacketStructure::kBoundingBox);
  EXPECT_EQ(mp.assignment_mode, WireAssignmentMode::kStatic);
  EXPECT_EQ(mp.edges, Topology::Edges::kMesh);
}

}  // namespace
}  // namespace locus
