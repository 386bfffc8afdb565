// Tests for route geometry, candidate exploration, the wire router and the
// quality metrics.
#include <gtest/gtest.h>

#include <set>

#include "circuit/generator.hpp"
#include "grid/cost_array.hpp"
#include "route/explorer.hpp"
#include "route/path.hpp"
#include "route/quality.hpp"
#include "route/router.hpp"
#include "route/sequential.hpp"
#include "test_util.hpp"

namespace locus {
namespace {

TEST(Route, CellEnumerationVisitsJunctionsOnce) {
  Route r;
  r.append({{0, 0}, {0, 3}});  // horizontal: 4 cells
  r.append({{0, 3}, {2, 3}});  // vertical: 3 cells, shares (0,3)
  std::vector<GridPoint> cells;
  r.for_each_cell([&](GridPoint p) { cells.push_back(p); });
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells.front(), (GridPoint{0, 0}));
  EXPECT_EQ(cells.back(), (GridPoint{2, 3}));
  std::set<GridPoint> unique(cells.begin(), cells.end());
  EXPECT_EQ(unique.size(), cells.size());
}

TEST(Route, ZeroLengthSegmentsAreSingleCells) {
  Route r;
  r.append({{1, 1}, {1, 1}});
  int cells = 0;
  r.for_each_cell([&](GridPoint) { ++cells; });
  EXPECT_EQ(cells, 1);
}

TEST(Route, CollectRowRunsMergesAcrossRoutes) {
  Route a;
  a.append({{0, 0}, {0, 4}});
  Route b;
  b.append({{0, 2}, {0, 6}});
  Route c;
  c.append({{0, 7}, {2, 7}});  // touches a+b's run in channel 0
  // 0..6 with the overlap 2..4 once, then x = 7 coalesced into the same run.
  EXPECT_EQ(collect_row_runs({a, b}), (std::vector<RowRun>{{0, 0, 6}}));
  EXPECT_EQ(collect_row_runs({a, b, c}),
            (std::vector<RowRun>{{0, 0, 7}, {1, 7, 7}, {2, 7, 7}}));
  EXPECT_EQ(test::expand_runs(collect_row_runs({a, b})).size(), 7u);
}

TEST(Route, CoversFindsCellsInRunsOnly) {
  const std::vector<RowRun> runs{{0, 2, 4}, {0, 8, 8}, {3, 0, 1}};
  for (std::int32_t c = -1; c <= 4; ++c) {
    for (std::int32_t x = -1; x <= 10; ++x) {
      const bool want = (c == 0 && ((x >= 2 && x <= 4) || x == 8)) ||
                        (c == 3 && x >= 0 && x <= 1);
      EXPECT_EQ(covers(runs, GridPoint{c, x}), want) << c << "," << x;
    }
  }
  EXPECT_FALSE(covers({}, GridPoint{0, 0}));
}

TEST(Explorer, PrefersEmptyChannel) {
  CostArray cost(4, 20);
  // Make channel 1 expensive; pins sit on row 0 (channels 0/1).
  for (std::int32_t x = 0; x < 20; ++x) cost.set({1, x}, 10);
  Pin a{2, 0}, b{12, 0};
  ExploreResult res = explore_connection(a, b, 4, cost, {});
  // The cheapest single-channel route runs in channel 0.
  for (const Segment& seg : res.route.segments()) {
    if (seg.horizontal() && seg.length() > 1) {
      EXPECT_EQ(seg.from.channel, 0);
    }
  }
  EXPECT_EQ(res.cost, 0);
}

TEST(Explorer, RouteConnectsThePins) {
  CostArray cost(6, 30);
  Pin a{3, 0}, b{25, 4};
  ExploreResult res = explore_connection(a, b, 6, cost, {});
  ASSERT_FALSE(res.route.empty());
  const Segment& first = res.route.segments().front();
  const Segment& last = res.route.segments().back();
  EXPECT_EQ(first.from.x, a.x);
  EXPECT_TRUE(first.from.channel == a.channel_above() ||
              first.from.channel == a.channel_below());
  EXPECT_EQ(last.to.x, b.x);
  EXPECT_TRUE(last.to.channel == b.channel_above() ||
              last.to.channel == b.channel_below());
}

TEST(Explorer, UsesZRouteAroundCongestion) {
  CostArray cost(4, 40);
  // Block the middle of every same-channel straight path except a window
  // that requires jogging between channels.
  for (std::int32_t c = 0; c < 4; ++c) {
    for (std::int32_t x = 15; x <= 25; ++x) {
      if (!(c == 2 && x >= 18 && x <= 22)) cost.set({c, x}, 50);
    }
  }
  Pin a{5, 0}, b{35, 0};
  ExploreResult res = explore_connection(a, b, 4, cost, {});
  // A straight channel-0 route would cost >= 11 * 50; the Z route through
  // the channel-2 window is far cheaper.
  EXPECT_LT(res.cost, 550);
}

TEST(Explorer, CountsProbesAndRoutes) {
  CostArray cost(4, 20);
  Pin a{0, 0}, b{10, 2};
  ExploreResult res = explore_connection(a, b, 4, cost, {});
  EXPECT_GT(res.stats.routes_evaluated, 4);
  EXPECT_GT(res.stats.cells_probed, 20);
}

TEST(Explorer, DeterministicTieBreak) {
  CostArray cost(4, 20);
  Pin a{2, 1}, b{14, 1};
  ExploreResult r1 = explore_connection(a, b, 4, cost, {});
  ExploreResult r2 = explore_connection(a, b, 4, cost, {});
  EXPECT_EQ(r1.route.segments(), r2.route.segments());
  EXPECT_EQ(r1.cost, r2.cost);
}

TEST(Explorer, ChannelSlackWidensSearch) {
  CostArray cost(6, 20);
  Pin a{2, 2}, b{15, 2};  // pins use channels 2/3
  ExplorerParams narrow;
  narrow.channel_slack = 0;
  ExplorerParams wide;
  wide.channel_slack = 2;
  ExploreResult rn = explore_connection(a, b, 6, cost, narrow);
  ExploreResult rw = explore_connection(a, b, 6, cost, wide);
  EXPECT_GT(rw.stats.routes_evaluated, rn.stats.routes_evaluated);
}

TEST(Router, CommitIncrementsExactlyRouteCells) {
  Circuit c("t", 4, 20, {[] {
              Wire w;
              w.pins = {{2, 0}, {15, 2}};
              return w;
            }()});
  CostArray cost(4, 20);
  WireRouter router(4, {});
  RouteWorkStats stats;
  WireRoute route = router.route_wire(c.wire(0), cost, stats);
  std::int64_t total = 0;
  for (std::int32_t ch = 0; ch < 4; ++ch) {
    for (std::int32_t x = 0; x < 20; ++x) total += cost.at({ch, x});
  }
  EXPECT_EQ(total, route.cell_count());
  for (const GridPoint& p : test::expand_runs(route.runs)) {
    EXPECT_EQ(cost.at(p), 1);
  }
}

TEST(Router, RipUpRestoresArray) {
  Circuit c = make_tiny_test_circuit();
  CostArray cost(c.channels(), c.grids());
  CostArray empty(c.channels(), c.grids());
  WireRouter router(c.channels(), {});
  RouteWorkStats stats;
  std::vector<WireRoute> routes;
  for (const Wire& w : c.wires()) {
    routes.push_back(router.route_wire(w, cost, stats));
  }
  EXPECT_FALSE(cost == empty);
  for (const WireRoute& r : routes) {
    WireRouter::rip_up(r, cost);
  }
  EXPECT_TRUE(cost == empty);
}

TEST(Router, MultiPinWireCellsAreUnique) {
  Circuit c("t", 6, 40, {[] {
              Wire w;
              w.pins = {{5, 0}, {15, 2}, {25, 4}, {35, 1}};
              return w;
            }()});
  CostArray cost(6, 40);
  WireRouter router(6, {});
  RouteWorkStats stats;
  WireRoute route = router.route_wire(c.wire(0), cost, stats);
  const std::vector<GridPoint> cells = test::expand_runs(route.runs);
  std::set<GridPoint> unique(cells.begin(), cells.end());
  EXPECT_EQ(unique.size(), cells.size());
  EXPECT_EQ(route.connections.size(), 3u);
}

TEST(Router, PathCostReflectsOccupancyAtDecisionTime) {
  Circuit c("t", 4, 20, {[] {
              Wire w;
              w.pins = {{2, 1}, {10, 1}};
              return w;
            }()});
  CostArray cost(4, 20, 3);  // uniform occupancy 3
  WireRouter router(4, {});
  RouteWorkStats stats;
  WireRoute route = router.route_wire(c.wire(0), cost, stats);
  EXPECT_EQ(route.path_cost, route.cell_count() * 3);
}

TEST(Quality, CircuitHeightSumsChannelMaxima) {
  CostArray cost(3, 10);
  cost.set({0, 4}, 5);
  cost.set({1, 1}, 2);
  cost.set({1, 9}, 7);
  EXPECT_EQ(circuit_height(cost), 5 + 7 + 0);
  auto profile = track_profile(cost);
  EXPECT_EQ(profile, (std::vector<std::int32_t>{5, 7, 0}));
}

TEST(Quality, RebuildMatchesIncrementalMaintenance) {
  Circuit c = make_tiny_test_circuit();
  SequentialResult r = route_sequential(c, {});
  CostArray rebuilt = rebuild_cost(c.channels(), c.grids(), r.routes);
  EXPECT_TRUE(rebuilt == r.cost);
  EXPECT_EQ(circuit_height(c.channels(), c.grids(), r.routes), r.circuit_height);
}

TEST(Sequential, RoutesEveryWire) {
  Circuit c = make_tiny_test_circuit();
  SequentialResult r = route_sequential(c, {});
  ASSERT_EQ(r.routes.size(), static_cast<std::size_t>(c.num_wires()));
  for (const WireRoute& route : r.routes) {
    EXPECT_TRUE(route.routed());
  }
  EXPECT_GT(r.circuit_height, 0);
  EXPECT_GT(r.occupancy_factor, 0);
  EXPECT_EQ(r.work.wires_routed, c.num_wires() * 2);  // two iterations
}

TEST(Sequential, Deterministic) {
  Circuit c = make_tiny_test_circuit();
  SequentialResult a = route_sequential(c, {});
  SequentialResult b = route_sequential(c, {});
  EXPECT_EQ(a.circuit_height, b.circuit_height);
  EXPECT_EQ(a.occupancy_factor, b.occupancy_factor);
  EXPECT_EQ(a.work.probes, b.work.probes);
}

TEST(Sequential, MoreIterationsDoNotWreckQuality) {
  // Rip-up and re-route should keep quality stable or improve it; allow a
  // small tolerance for local oscillation on the tiny circuit.
  Circuit c = make_tiny_test_circuit();
  SequentialParams one;
  one.iterations = 1;
  SequentialParams four;
  four.iterations = 4;
  SequentialResult r1 = route_sequential(c, one);
  SequentialResult r4 = route_sequential(c, four);
  EXPECT_LE(r4.circuit_height, r1.circuit_height + 2);
}

/// Property sweep: router invariants hold across seeds and circuit shapes.
class RouterProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouterProperty, CellsWithinBoundsAndConnected) {
  Circuit c = make_tiny_test_circuit(GetParam());
  CostArray cost(c.channels(), c.grids());
  WireRouter router(c.channels(), {});
  RouteWorkStats stats;
  for (const Wire& w : c.wires()) {
    WireRoute route = router.route_wire(w, cost, stats);
    ASSERT_TRUE(route.routed());
    for (const GridPoint& p : test::expand_runs(route.runs)) {
      ASSERT_GE(p.channel, 0);
      ASSERT_LT(p.channel, c.channels());
      ASSERT_GE(p.x, 0);
      ASSERT_LT(p.x, c.grids());
    }
    // Each connection's endpoints touch its pins' columns.
    ASSERT_EQ(route.connections.size(), w.pins.size() - 1);
    for (std::size_t i = 0; i < route.connections.size(); ++i) {
      const Route& conn = route.connections[i];
      ASSERT_FALSE(conn.empty());
      EXPECT_EQ(conn.segments().front().from.x, w.pins[i].x);
      EXPECT_EQ(conn.segments().back().to.x, w.pins[i + 1].x);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterProperty,
                         ::testing::Values(1, 4, 9, 16, 25, 36, 49, 64));

}  // namespace
}  // namespace locus
