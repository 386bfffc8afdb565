// Cross-module property tests: exhaustive small-grid sweeps and randomized
// invariants that tie the pieces together.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "circuit/generator.hpp"
#include "geom/partition.hpp"
#include "grid/cost_array.hpp"
#include "grid/delta_array.hpp"
#include "msg/view.hpp"
#include "route/explorer.hpp"
#include "route/quality.hpp"
#include "route/router.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/topology.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "test_util.hpp"

namespace locus {
namespace {

/// Exhaustive sweep of pin placements on a small grid: the chosen route
/// always starts/ends at a valid entry channel of each pin, stays in
/// bounds, and its reported cost matches an independent re-pricing.
TEST(ExplorerProperty, ExhaustiveSmallGridSweep) {
  const std::int32_t channels = 4;
  const std::int32_t grids = 9;
  // A deterministic, non-uniform cost landscape.
  CostArray cost = test::make_random_landscape(channels, grids, 123, 4);
  ExplorerParams params;
  for (std::int32_t ax = 0; ax < grids; ax += 2) {
    for (std::int32_t arow = 0; arow < channels - 1; ++arow) {
      for (std::int32_t bx = 0; bx < grids; bx += 2) {
        for (std::int32_t brow = 0; brow < channels - 1; ++brow) {
          Pin a{ax, arow}, b{bx, brow};
          ExploreResult res = explore_connection(a, b, channels, cost, params);
          ASSERT_FALSE(res.route.empty());
          const Segment& first = res.route.segments().front();
          const Segment& last = res.route.segments().back();
          ASSERT_EQ(first.from.x, a.x);
          ASSERT_TRUE(first.from.channel == a.channel_above() ||
                      first.from.channel == a.channel_below());
          ASSERT_EQ(last.to.x, b.x);
          ASSERT_TRUE(last.to.channel == b.channel_above() ||
                      last.to.channel == b.channel_below());
          std::int64_t repriced = 0;
          res.route.for_each_cell([&](GridPoint p) {
            ASSERT_GE(p.channel, 0);
            ASSERT_LT(p.channel, channels);
            ASSERT_GE(p.x, 0);
            ASSERT_LT(p.x, grids);
            repriced += cost.read(p);
          });
          ASSERT_EQ(repriced, res.cost)
              << "a=(" << ax << "," << arow << ") b=(" << bx << "," << brow << ")";
        }
      }
    }
  }
}

/// The chosen route is never more expensive than the direct single-channel
/// route through either pin channel (those are always in the candidate set).
TEST(ExplorerProperty, NeverWorseThanDirectRoute) {
  CostArray cost = test::make_random_landscape(5, 40, 77, 6);
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    Pin a{static_cast<std::int32_t>(rng.bounded(40)),
          static_cast<std::int32_t>(rng.bounded(4))};
    Pin b{static_cast<std::int32_t>(rng.bounded(40)),
          static_cast<std::int32_t>(rng.bounded(4))};
    ExploreResult res = explore_connection(a, b, 5, cost, {});
    // Direct route in the channel above pin a.
    std::int64_t direct = 0;
    const std::int32_t c = a.channel_above();
    const std::int32_t lo = std::min(a.x, b.x);
    const std::int32_t hi = std::max(a.x, b.x);
    for (std::int32_t x = lo; x <= hi; ++x) direct += cost.read({c, x});
    // Plus the vertical tail at b to reach channel c from b's row options.
    const std::int32_t eb = c <= b.row ? b.row : b.row + 1;
    for (std::int32_t ch = std::min(c, eb) ; ch <= std::max(c, eb); ++ch) {
      if (ch != c) direct += cost.read({ch, b.x});
    }
    ASSERT_LE(res.cost, direct);
  }
}

/// Read-only CostView wrapper without bulk-read support: forces
/// explore_connection onto the per-cell reference fallback, like the SHM
/// router's tracing view does while capturing (shm/shm_router.cpp).
class NonBulkView final : public CostView {
 public:
  explicit NonBulkView(CostArray& a) : array_(a) {}
  std::int32_t read(GridPoint p) override { return array_.read(p); }
  void add(GridPoint p, std::int32_t d) override { array_.add(p, d); }

 private:
  CostArray& array_;
};

/// The pricing engines are interchangeable across the full deployment
/// matrix: {vector kernels, forced-scalar kernels} x {plain CostArray,
/// drifted ViewWithDelta (the message passing node view, holding negative
/// raw values that read() clamps at zero), non-bulk fallback view}. Every
/// combination must return the same cost, the same route, and the same work
/// counters as the per-cell reference engine, bit for bit.
class BulkVsReferenceMatrix : public ::testing::TestWithParam<bool> {
 public:
  BulkVsReferenceMatrix() : prev_(simd::force_scalar()) {
    simd::set_force_scalar(GetParam());
  }
  ~BulkVsReferenceMatrix() override { simd::set_force_scalar(prev_); }

 private:
  bool prev_;
};

TEST_P(BulkVsReferenceMatrix, BulkPricingMatchesReferenceBitForBit) {
  Rng rng(20'260'806);
  int tuples = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::int32_t channels = 3 + static_cast<std::int32_t>(rng.bounded(10));
    const std::int32_t grids = 8 + static_cast<std::int32_t>(rng.bounded(120));
    CostArray cost = test::make_random_landscape(
        channels, grids, 50'000 + static_cast<std::uint64_t>(trial),
        1 + rng.bounded(9));
    if (trial % 2 == 1) {
      // Drift some cells negative, as a message passing view does when an
      // absolute region update lands over a local rip-up.
      for (std::int32_t k = 0; k < grids; ++k) {
        GridPoint p{static_cast<std::int32_t>(rng.bounded(channels)),
                    static_cast<std::int32_t>(rng.bounded(grids))};
        cost.set(p, -static_cast<std::int32_t>(1 + rng.bounded(3)));
      }
    }
    Partition part(channels, grids, MeshShape{1, 1});
    DeltaArray delta(part);
    ViewWithDelta node_view(cost, delta);
    NonBulkView fallback(cost);
    ExplorerParams params;
    params.channel_slack = static_cast<std::int32_t>(rng.bounded(3));
    params.jog_samples = 1 + static_cast<std::int32_t>(rng.bounded(16));
    params.bend_penalty = rng.chance(0.5) ? 0 : 3;
    params.congestion_power = rng.chance(0.5) ? 1 : 2;
    for (int pair = 0; pair < 4; ++pair, ++tuples) {
      Pin a{static_cast<std::int32_t>(rng.bounded(grids)),
            static_cast<std::int32_t>(rng.bounded(channels - 1))};
      Pin b{static_cast<std::int32_t>(rng.bounded(grids)),
            static_cast<std::int32_t>(rng.bounded(channels - 1))};
      const ExploreResult ref =
          explore_connection_reference(a, b, channels, cost, params);
      const auto expect_same = [&](const ExploreResult& got, const char* via) {
        ASSERT_EQ(got.cost, ref.cost)
            << via << " trial " << trial << " a=(" << a.x << "," << a.row
            << ") b=(" << b.x << "," << b.row << ")";
        ASSERT_TRUE(got.route == ref.route) << via << " trial " << trial;
        ASSERT_EQ(got.stats.cells_probed, ref.stats.cells_probed) << via;
        ASSERT_EQ(got.stats.routes_evaluated, ref.stats.routes_evaluated) << via;
      };
      expect_same(explore_connection(a, b, channels, cost, params),
                  "bulk/CostArray");
      expect_same(explore_connection(a, b, channels, node_view, params),
                  "bulk/ViewWithDelta");
      expect_same(explore_connection(a, b, channels, fallback, params),
                  "fallback/NonBulkView");
    }
  }
  ASSERT_GE(tuples, 200);  // the tuple floor the PR promises
}

INSTANTIATE_TEST_SUITE_P(VectorAndScalar, BulkVsReferenceMatrix,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& pi) {
                           return pi.param ? "ForcedScalar" : "Vector";
                         });

/// collect_unique_cells' interval-union sweep against the brute-force
/// specification: materialize every covered cell, sort, dedupe.
TEST(RouterProperty2, CollectUniqueCellsMatchesSortBasedReference) {
  Rng rng(20'260'808);
  for (int trial = 0; trial < 120; ++trial) {
    std::vector<Route> routes(1 + rng.bounded(4));
    for (Route& r : routes) {
      const std::int32_t segs = 1 + static_cast<std::int32_t>(rng.bounded(5));
      GridPoint at{static_cast<std::int32_t>(rng.bounded(6)),
                   static_cast<std::int32_t>(rng.bounded(30))};
      for (std::int32_t i = 0; i < segs; ++i) {
        GridPoint to = at;
        if (rng.chance(0.5)) {
          to.x = static_cast<std::int32_t>(rng.bounded(30));
        } else {
          to.channel = static_cast<std::int32_t>(rng.bounded(6));
        }
        r.append(Segment{at, to});
        at = to;
      }
    }
    std::vector<GridPoint> want;
    for (const Route& r : routes) {
      r.for_each_cell([&](GridPoint p) { want.push_back(p); });
    }
    std::sort(want.begin(), want.end(), [](GridPoint x, GridPoint y) {
      return x.channel != y.channel ? x.channel < y.channel : x.x < y.x;
    });
    want.erase(std::unique(want.begin(), want.end()), want.end());
    const std::vector<GridPoint> got = collect_unique_cells(routes);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(got[i] == want[i]) << "trial " << trial << " i=" << i;
    }
  }
}

/// Rip-up is the exact inverse of commit: any interleaving of route and
/// rip-up operations that ends with all routes ripped leaves a zero array.
TEST(RouterProperty2, ArbitraryRipUpOrderRestoresZero) {
  Circuit c = make_tiny_test_circuit(3);
  CostArray cost(c.channels(), c.grids());
  CostArray zero(c.channels(), c.grids());
  WireRouter router(c.channels(), {});
  RouteWorkStats stats;
  Rng rng(9);

  std::vector<WireRoute> live;
  for (int step = 0; step < 200; ++step) {
    if (!live.empty() && rng.chance(0.4)) {
      std::size_t pick = rng.bounded(live.size());
      WireRouter::rip_up(live[pick], cost);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      WireId id = static_cast<WireId>(rng.bounded(
          static_cast<std::uint64_t>(c.num_wires())));
      live.push_back(router.route_wire(c.wire(id), cost, stats));
    }
  }
  for (const WireRoute& r : live) WireRouter::rip_up(r, cost);
  EXPECT_TRUE(cost == zero);
}

/// Network: without contention, every delivery matches the closed-form
/// latency, for random packets on random meshes.
class NetworkFormulaProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkFormulaProperty, ClosedFormHolds) {
  Rng rng(GetParam());
  const std::int32_t cols = 2 + static_cast<std::int32_t>(rng.bounded(4));
  const std::int32_t rows = 2 + static_cast<std::int32_t>(rng.bounded(3));
  Topology topo({cols, rows}, Topology::Edges::kMesh);
  EventQueue queue;
  std::vector<std::pair<Packet, SimTime>> delivered;
  Network net(topo, {}, queue,
              [&](const Packet& p, SimTime at) { delivered.push_back({p, at}); });

  // Packets widely spaced in time so no two ever contend.
  SimTime t = 0;
  std::vector<std::pair<SimTime, std::int64_t>> expect;  // (ready, D + L)
  for (int i = 0; i < 20; ++i) {
    Packet p;
    p.src = static_cast<ProcId>(rng.bounded(
        static_cast<std::uint64_t>(topo.num_nodes())));
    do {
      p.dst = static_cast<ProcId>(rng.bounded(
          static_cast<std::uint64_t>(topo.num_nodes())));
    } while (p.dst == p.src);
    p.type = 1;
    p.bytes = 1 + static_cast<std::int32_t>(rng.bounded(500));
    const std::int64_t d = topo.distance(p.src, p.dst);
    expect.push_back({t, d + p.bytes});
    net.inject(std::move(p), t);
    t += 10'000'000;  // 10 ms apart
  }
  queue.run();
  ASSERT_EQ(delivered.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(delivered[i].second,
              expect[i].first + 100 * expect[i].second + 2000);
  }
  EXPECT_EQ(net.stats().total_link_wait_ns, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkFormulaProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

/// Quality invariant: circuit height from track profile equals the sum of
/// per-channel maxima for random arrays.
TEST(QualityProperty, HeightMatchesProfileSum) {
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    CostArray cost = test::make_random_landscape(
        1 + static_cast<std::int32_t>(rng.bounded(8)),
        1 + static_cast<std::int32_t>(rng.bounded(60)),
        31'000 + static_cast<std::uint64_t>(trial), 12);
    auto profile = track_profile(cost);
    std::int64_t sum = 0;
    for (std::int32_t v : profile) sum += v;
    EXPECT_EQ(sum, circuit_height(cost));
  }
}

}  // namespace
}  // namespace locus
