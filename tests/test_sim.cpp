// Tests for the discrete event core, topology/routing, and the wormhole
// network model (latency formula, contention, statistics).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/packet.hpp"
#include "sim/topology.hpp"

namespace locus {
namespace {

/// Handler context that records the `a` operand of every event it runs.
struct Recorder {
  std::vector<int> order;
  static void push(void* ctx, SimTime, std::uint64_t a, std::uint64_t) {
    static_cast<Recorder*>(ctx)->order.push_back(static_cast<int>(a));
  }
};

void noop(void*, SimTime, std::uint64_t, std::uint64_t) {}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  Recorder rec;
  const EventQueue::HandlerId h = q.add_handler(&Recorder::push, &rec);
  q.schedule(30, h, 3);
  q.schedule(10, h, 1);
  q.schedule(20, h, 2);
  q.run();
  EXPECT_EQ(rec.order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsRunFifo) {
  EventQueue q;
  Recorder rec;
  const EventQueue::HandlerId h = q.add_handler(&Recorder::push, &rec);
  for (int i = 0; i < 10; ++i) q.schedule(5, h, static_cast<std::uint64_t>(i));
  q.run();
  ASSERT_EQ(rec.order.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rec.order[static_cast<std::size_t>(i)], i);
  }
}

/// A handler that reschedules itself `step` ns later until `stop` events
/// have run (`stop` < 0: forever).
struct Chain {
  EventQueue* q = nullptr;
  EventQueue::HandlerId h = 0;
  SimTime step = 0;
  int stop = -1;
  int count = 0;
  static void on(void* ctx, SimTime now, std::uint64_t, std::uint64_t) {
    auto* c = static_cast<Chain*>(ctx);
    if (++c->count != c->stop) c->q->schedule(now + c->step, c->h);
  }
};

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  Chain chain{&q, 0, 10, 5};
  chain.h = q.add_handler(&Chain::on, &chain);
  q.schedule(0, chain.h);
  SimTime end = q.run();
  EXPECT_EQ(chain.count, 5);
  EXPECT_EQ(end, 40);
  EXPECT_EQ(q.executed(), 5u);
}

TEST(EventQueue, RunBoundedStops) {
  EventQueue q;
  Chain forever{&q, 0, 1};
  forever.h = q.add_handler(&Chain::on, &forever);
  q.schedule(0, forever.h);
  EXPECT_EQ(q.run_bounded(100), 100u);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, PodHandlerReceivesTimeAndOperands) {
  EventQueue q;
  struct Seen {
    SimTime now = -1;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    static void on(void* ctx, SimTime now, std::uint64_t a, std::uint64_t b) {
      *static_cast<Seen*>(ctx) = Seen{now, a, b};
    }
  } seen;
  const EventQueue::HandlerId h = q.add_handler(&Seen::on, &seen);
  q.schedule(42, h, 7, 9);
  q.run();
  EXPECT_EQ(seen.now, 42);
  EXPECT_EQ(seen.a, 7u);
  EXPECT_EQ(seen.b, 9u);
}

TEST(EventQueue, PeakPendingTracksHighWater) {
  EventQueue q;
  const EventQueue::HandlerId h = q.add_handler(&noop, nullptr);
  for (int i = 0; i < 8; ++i) q.schedule(i, h);
  EXPECT_EQ(q.peak_pending(), 8u);
  q.run();
  EXPECT_EQ(q.peak_pending(), 8u);  // high-water survives the drain
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, NowAdvancesMonotonically) {
  EventQueue q;
  struct Watch {
    const EventQueue* q;
    SimTime last = -1;
    static void on(void* ctx, SimTime now, std::uint64_t, std::uint64_t) {
      auto* w = static_cast<Watch*>(ctx);
      EXPECT_EQ(w->q->now(), now);
      EXPECT_GE(now, w->last);
      w->last = now;
    }
  } watch{&q};
  const EventQueue::HandlerId h = q.add_handler(&Watch::on, &watch);
  for (int i = 0; i < 20; ++i) q.schedule((i * 7) % 13, h);
  q.run();
  EXPECT_EQ(watch.last, 12);
}

TEST(Topology, CoordsRoundTrip) {
  Topology t({4, 3}, Topology::Edges::kMesh);
  EXPECT_EQ(t.num_nodes(), 12);
  for (std::int32_t n = 0; n < 12; ++n) {
    EXPECT_EQ(t.node_at(t.coords(n)), n);
  }
}

TEST(Topology, Mesh2dMatchesPartitionNumbering) {
  // Partition numbers row-major with cols fastest; mesh2d must agree.
  Topology t = Topology::mesh2d(MeshShape{4, 4});
  EXPECT_EQ(t.num_nodes(), 16);
  // proc 1 is (row 0, col 1): one hop from proc 0.
  EXPECT_EQ(t.distance(0, 1), 1);
  // proc 4 is (row 1, col 0): one hop from proc 0.
  EXPECT_EQ(t.distance(0, 4), 1);
  EXPECT_EQ(t.distance(0, 15), 6);
}

TEST(Topology, RouteFollowsLinksToDestination) {
  Topology t({4, 4}, Topology::Edges::kMesh);
  for (std::int32_t src = 0; src < 16; ++src) {
    for (std::int32_t dst = 0; dst < 16; ++dst) {
      auto path = t.route(src, dst);
      EXPECT_EQ(static_cast<std::int32_t>(path.size()), t.distance(src, dst));
      std::int32_t at = src;
      for (const LinkId& link : path) {
        EXPECT_EQ(link.from, at);
        at = t.link_target(link);
      }
      EXPECT_EQ(at, dst);
    }
  }
}

TEST(Topology, DimensionOrderIsDeterministic) {
  Topology t({4, 4}, Topology::Edges::kMesh);
  auto a = t.route(0, 15);
  auto b = t.route(0, 15);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].from, b[i].from);
    EXPECT_EQ(a[i].dim, b[i].dim);
    EXPECT_EQ(a[i].positive, b[i].positive);
  }
  // X (dim 0) moves first.
  EXPECT_EQ(a.front().dim, 0);
  EXPECT_EQ(a.back().dim, 1);
}

TEST(Topology, TorusWrapsAround) {
  Topology mesh({5}, Topology::Edges::kMesh);
  Topology torus({5}, Topology::Edges::kTorus);
  EXPECT_EQ(mesh.distance(0, 4), 4);
  EXPECT_EQ(torus.distance(0, 4), 1);  // wrap
  auto path = torus.route(0, 4);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_FALSE(path[0].positive);  // negative direction wraps to 4
}

TEST(Topology, LinkIndexIsDense) {
  Topology t({3, 3}, Topology::Edges::kMesh);
  std::set<std::int32_t> seen;
  for (std::int32_t n = 0; n < t.num_nodes(); ++n) {
    for (std::int32_t d = 0; d < t.num_dims(); ++d) {
      for (bool positive : {false, true}) {
        std::int32_t idx = t.link_index({n, d, positive});
        EXPECT_GE(idx, 0);
        EXPECT_LT(idx, t.num_links());
        EXPECT_TRUE(seen.insert(idx).second);
      }
    }
  }
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : topo_({4, 4}, Topology::Edges::kMesh),
        net_(topo_, LinkCostParams{}, queue_,
             [this](const Packet& p, SimTime at) {
               deliveries_.push_back({p, at});
             }) {}

  Packet make_packet(ProcId src, ProcId dst, std::int32_t bytes) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.type = 1;
    p.bytes = bytes;
    return p;
  }

  Topology topo_;
  EventQueue queue_;
  Network net_;
  std::vector<std::pair<Packet, SimTime>> deliveries_;
};

TEST_F(NetworkTest, UncontendedLatencyMatchesPaperFormula) {
  // Paper §2.1: 2*ProcessTime + HopTime*(D + L). The send-side ProcessTime
  // is charged by the caller before `ready`, so delivery = ready +
  // HopTime*(D+L) + ProcessTime; total from send start = the formula.
  const std::int32_t L = 100;
  const SimTime ready = 2000;  // caller already spent one ProcessTime
  net_.inject(make_packet(0, 3, L), ready);  // D = 3
  queue_.run();
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].second, 2 * 2000 + 100 * (3 + L));
}

TEST_F(NetworkTest, LatencyScalesWithDistance) {
  net_.inject(make_packet(0, 1, 50), 0);
  net_.inject(make_packet(0, 15, 50), 0);
  queue_.run();
  ASSERT_EQ(deliveries_.size(), 2u);
  // 6 hops vs 1 hop: 500ns more head latency... but serialized injection
  // interface also delays the second packet. Compare against exact values.
  EXPECT_EQ(deliveries_[0].second, 100 * (1 + 50) + 2000);
  // Second packet injected after the first clears the NI (50 byte-times).
  EXPECT_EQ(deliveries_[1].second, 50 * 100 + 100 * (6 + 50) + 2000);
}

TEST_F(NetworkTest, ContentionDelaysSecondPacket) {
  // Disjoint paths from different sources see no interference at all.
  net_.inject(make_packet(0, 1, 200), 0);
  net_.inject(make_packet(4, 5, 200), 0);
  queue_.run();
  const SimTime uncontended = 100 * (1 + 200) + 2000;
  EXPECT_EQ(deliveries_[0].second, uncontended);
  EXPECT_EQ(deliveries_[1].second, uncontended);

  // Two sources converging on link 1->2: the later head waits while the
  // first packet's 200 bytes stream across the shared link.
  deliveries_.clear();
  net_.inject(make_packet(0, 2, 200), 1'000'000);  // path 0->1->2
  net_.inject(make_packet(1, 2, 200), 1'000'000);  // path 1->2 (shared)
  queue_.run();
  ASSERT_EQ(deliveries_.size(), 2u);
  EXPECT_GT(deliveries_[1].second, deliveries_[0].second + 200 * 100 - 1);
  EXPECT_GT(net_.stats().total_link_wait_ns, 0);
}

TEST_F(NetworkTest, StatsCountBytesOncePerPacket) {
  net_.inject(make_packet(0, 15, 64), 0);
  net_.inject(make_packet(5, 6, 32), 0);
  queue_.run();
  const NetworkStats& s = net_.stats();
  EXPECT_EQ(s.packets, 2u);
  EXPECT_EQ(s.bytes, 96u);
  EXPECT_EQ(s.hops, 6u + 1u);
  EXPECT_EQ(s.byte_hops, 64u * 6 + 32u * 1);
  EXPECT_EQ(s.bytes_by_type.at(1), 96u);
}

TEST_F(NetworkTest, SelfSendIsRejected) {
  EXPECT_DEATH(net_.inject(make_packet(3, 3, 8), 0), "self-send");
}

}  // namespace
}  // namespace locus
