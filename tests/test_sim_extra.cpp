// Additional simulator coverage: resume-supersede logic, interleaved
// compute/communication patterns, torus/hypercube topologies through the
// message passing driver, and network statistics invariants.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "circuit/generator.hpp"
#include "msg/driver.hpp"
#include "sim/machine.hpp"

namespace locus {
namespace {

/// Echo server: replies to every packet with the same byte count.
class Echo : public Node {
 public:
  void on_packet(NodeApi& api, const Packet& packet) override {
    api.advance(100);
    api.send(packet.src, packet.type + 100, packet.bytes, nullptr);
    ++served_;
  }
  bool on_step(NodeApi&) override { return false; }
  int served() const { return served_; }

 private:
  int served_ = 0;
};

/// Sends `count` pings spaced by compute, records echo arrival times.
class Pinger : public Node {
 public:
  Pinger(ProcId dst, int count) : dst_(dst), count_(count) {}
  void on_packet(NodeApi& api, const Packet&) override {
    echoes_.push_back(api.now());
  }
  bool on_step(NodeApi& api) override {
    if (sent_ >= count_) return false;
    ++sent_;
    api.advance(5000);
    api.send(dst_, 1, 32, nullptr);
    return true;
  }
  const std::vector<SimTime>& echoes() const { return echoes_; }

 private:
  ProcId dst_;
  int count_;
  int sent_ = 0;
  std::vector<SimTime> echoes_;
};

TEST(MachineExtra, PingPongRoundTrips) {
  Machine m(Topology({2, 1}, Topology::Edges::kMesh), {});
  auto pinger = std::make_unique<Pinger>(1, 5);
  Pinger* p = pinger.get();
  auto echo = std::make_unique<Echo>();
  Echo* e = echo.get();
  m.set_node(0, std::move(pinger));
  m.set_node(1, std::move(echo));
  m.run();
  EXPECT_EQ(e->served(), 5);
  ASSERT_EQ(p->echoes().size(), 5u);
  for (std::size_t i = 1; i < p->echoes().size(); ++i) {
    EXPECT_GT(p->echoes()[i], p->echoes()[i - 1]);
  }
}

TEST(MachineExtra, NodeAccessorReturnsProgram) {
  Machine m(Topology({2, 1}, Topology::Edges::kMesh), {});
  m.set_node(0, std::make_unique<Echo>());
  m.set_node(1, std::make_unique<Echo>());
  m.run();
  EXPECT_NE(dynamic_cast<Echo*>(m.node(0)), nullptr);
  EXPECT_NE(dynamic_cast<Echo*>(m.node(1)), nullptr);
}

TEST(MachineExtra, DrainTimeCoversTrailingDeliveries) {
  Machine m(Topology({2, 1}, Topology::Edges::kMesh), {});
  m.set_node(0, std::make_unique<Pinger>(1, 1));
  m.set_node(1, std::make_unique<Echo>());
  MachineStats stats = m.run();
  EXPECT_GE(stats.drain_time, stats.completion_time);
}

TEST(TopologyOverride, HypercubeRunsAndMatchesMeshQualityClosely) {
  Circuit c = make_bnre_like();
  MpConfig mesh_config;
  mesh_config.schedule = UpdateSchedule::sender(2, 10);
  MpConfig cube_config = mesh_config;
  cube_config.topology_dims = {2, 2, 2, 2};
  cube_config.edges = Topology::Edges::kTorus;
  MpRunResult mesh = run_message_passing(c, 16, mesh_config);
  MpRunResult cube = run_message_passing(c, 16, cube_config);
  // Same update information flows; only transport distances differ.
  EXPECT_EQ(mesh.bytes_transferred, cube.bytes_transferred);
  EXPECT_NEAR(static_cast<double>(mesh.circuit_height),
              static_cast<double>(cube.circuit_height), 6.0);
  // Hypercube diameter 4 < mesh diameter 6: byte-hops cannot be much worse.
  EXPECT_LT(cube.network.byte_hops, mesh.network.byte_hops * 3 / 2);
}

TEST(TopologyOverride, RingStretchesByteHops) {
  Circuit c = make_tiny_test_circuit();
  MpConfig mesh_config;
  mesh_config.schedule = UpdateSchedule::sender(2, 5);
  MpConfig ring_config = mesh_config;
  ring_config.topology_dims = {4};
  ring_config.edges = Topology::Edges::kTorus;
  MpRunResult mesh = run_message_passing(c, 4, mesh_config);
  MpRunResult ring = run_message_passing(c, 4, ring_config);
  EXPECT_EQ(mesh.bytes_transferred, ring.bytes_transferred);
}

/// The message validate() throws for `config`, or "" when it accepts it.
std::string validate_error(const MpConfig& config, std::int32_t procs) {
  try {
    config.validate(procs);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(TopologyOverride, WrongProductDies) {
  Circuit c = make_tiny_test_circuit();
  MpConfig config;
  config.topology_dims = {3, 2};  // 6 != 4 procs
  EXPECT_THROW(run_message_passing(c, 4, config), std::invalid_argument);
  EXPECT_NE(validate_error(config, 4).find("topology_dims multiply to 6"),
            std::string::npos);
  config.edges = Topology::Edges::kFatTree;  // dims are ignored on a fat tree
  EXPECT_EQ(validate_error(config, 4), "");
}

TEST(MpConfigValidate, ZeroIterationsThrows) {
  MpConfig config;
  config.iterations = 0;
  EXPECT_THROW(run_message_passing(make_tiny_test_circuit(), 4, config),
               std::invalid_argument);
  EXPECT_NE(validate_error(config, 4).find("iterations must be >= 1, got 0"),
            std::string::npos);
}

TEST(MpConfigValidate, BatchingNeedsBoundingBoxPackets) {
  MpConfig config;
  config.shard.batch_updates = true;
  config.packet_structure = PacketStructure::kWholeRegion;
  EXPECT_THROW(run_message_passing(make_tiny_test_circuit(), 4, config),
               std::invalid_argument);
  EXPECT_NE(validate_error(config, 4).find("shard.batch_updates"), std::string::npos);
  config.packet_structure = PacketStructure::kBoundingBox;
  EXPECT_EQ(validate_error(config, 4), "");
}

TEST(MpConfigValidate, TileSidesMustBePositivePowersOfTwo) {
  MpConfig config;
  config.shard.tile = TileDims{3, 128};
  EXPECT_THROW(run_message_passing(make_tiny_test_circuit(), 4, config),
               std::invalid_argument);
  EXPECT_NE(validate_error(config, 4).find("shard.tile.channels must be a positive "
                                           "power of two, got 3"),
            std::string::npos);
  config.shard.tile = TileDims{2, 0};
  EXPECT_NE(validate_error(config, 4).find("shard.tile.cols must be a positive "
                                           "power of two, got 0"),
            std::string::npos);
  config.shard.tile = TileDims{1, 1};
  EXPECT_EQ(validate_error(config, 4), "");
}

TEST(NetworkInvariants, ByteHopsAtLeastBytes) {
  Circuit c = make_tiny_test_circuit();
  MpConfig config;
  config.schedule = UpdateSchedule::sender(1, 1);
  MpRunResult r = run_message_passing(c, 4, config);
  EXPECT_GE(r.network.byte_hops, r.network.bytes);
  // Per-type accounting sums to the total.
  std::uint64_t sum = 0;
  for (const auto& [type, bytes] : r.network.bytes_by_type) sum += bytes;
  EXPECT_EQ(sum, r.network.bytes);
}

TEST(NetworkInvariants, LatencyPositiveWhenTrafficFlows) {
  Circuit c = make_tiny_test_circuit();
  MpConfig config;
  config.schedule = UpdateSchedule::sender(1, 1);
  MpRunResult r = run_message_passing(c, 4, config);
  ASSERT_GT(r.network.packets, 0u);
  EXPECT_GT(r.network.total_latency_ns, 0);
  EXPECT_GE(r.network.hops, r.network.packets);  // at least one hop each
}

}  // namespace
}  // namespace locus
