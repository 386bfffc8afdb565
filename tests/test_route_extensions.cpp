// Tests for the router extensions: MST pin decomposition, congestion-power
// pricing, the thorough exploration preset, and the quality a second
// iteration buys.
#include <gtest/gtest.h>

#include "circuit/generator.hpp"
#include "grid/cost_array.hpp"
#include "route/router.hpp"
#include "route/sequential.hpp"

namespace locus {
namespace {

Wire wire_with(std::vector<Pin> pins) {
  Wire w;
  w.id = 0;
  w.pins = std::move(pins);
  std::sort(w.pins.begin(), w.pins.end(), [](const Pin& a, const Pin& b) {
    return a.x != b.x ? a.x < b.x : a.row < b.row;
  });
  return w;
}

std::int64_t total_route_cells(const Circuit& c, Decomposition mode) {
  CostArray cost(c.channels(), c.grids());
  RouterParams params;
  params.decomposition = mode;
  WireRouter router(c.channels(), params);
  RouteWorkStats stats;
  std::int64_t cells = 0;
  for (const Wire& w : c.wires()) {
    cells += router.route_wire(w, cost, stats).cell_count();
  }
  return cells;
}

TEST(MstDecomposition, TwoPinWiresIdenticalToChain) {
  Circuit c("t", 4, 30, {wire_with({{2, 0}, {25, 2}})});
  CostArray cost_a(4, 30), cost_b(4, 30);
  RouterParams chain, mst;
  mst.decomposition = Decomposition::kMst;
  RouteWorkStats sa, sb;
  WireRoute a = WireRouter(4, chain).route_wire(c.wire(0), cost_a, sa);
  WireRoute b = WireRouter(4, mst).route_wire(c.wire(0), cost_b, sb);
  EXPECT_EQ(a.runs, b.runs);
}

TEST(MstDecomposition, StarPatternUsesFewerCells) {
  // Four pins in a star: the chain connects left->center1->center2->right;
  // the MST hangs every outer pin off the nearest center, which on an empty
  // array needs no more cells than the chain.
  Circuit c("t", 6, 60, {wire_with({{30, 2}, {5, 2}, {55, 2}, {30, 0}})});
  CostArray empty_a(6, 60), empty_b(6, 60);
  RouterParams chain, mst;
  mst.decomposition = Decomposition::kMst;
  RouteWorkStats sa, sb;
  WireRoute a = WireRouter(6, chain).route_wire(c.wire(0), empty_a, sa);
  WireRoute b = WireRouter(6, mst).route_wire(c.wire(0), empty_b, sb);
  EXPECT_LE(b.cell_count(), a.cell_count());
}

TEST(MstDecomposition, ConnectsEveryPinOnRealCircuit) {
  Circuit c = make_tiny_test_circuit();
  CostArray cost(c.channels(), c.grids());
  RouterParams params;
  params.decomposition = Decomposition::kMst;
  WireRouter router(c.channels(), params);
  RouteWorkStats stats;
  for (const Wire& w : c.wires()) {
    WireRoute route = router.route_wire(w, cost, stats);
    ASSERT_EQ(route.connections.size(), w.pins.size() - 1);
    // Every pin column appears among the committed cells.
    for (const Pin& pin : w.pins) {
      bool found = false;
      for (const RowRun& run : route.runs) {
        if (run.x_lo <= pin.x && pin.x <= run.x_hi &&
            (run.channel == pin.channel_above() ||
             run.channel == pin.channel_below())) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "wire " << w.id << " pin at x=" << pin.x;
    }
  }
}

TEST(MstDecomposition, NoLongerThanChainOnAverage) {
  Circuit c = make_bnre_like();
  EXPECT_LE(total_route_cells(c, Decomposition::kMst),
            total_route_cells(c, Decomposition::kChainX));
}

TEST(CongestionPower, QuadraticAvoidsHotCells) {
  // A hot cell of occupancy 3 vs a detour of 3 empty cells: linear pricing
  // is indifferent (cost 3 either way); quadratic (9 vs 3) detours.
  CostArray cost(4, 20);
  for (std::int32_t x = 8; x <= 12; ++x) cost.set({1, x}, 3);
  Pin a{2, 0}, b{18, 0};  // channels 0/1
  ExplorerParams linear;
  ExplorerParams quadratic;
  quadratic.congestion_power = 2;
  ExploreResult lr = explore_connection(a, b, 4, cost, linear);
  ExploreResult qr = explore_connection(a, b, 4, cost, quadratic);
  // Quadratic never routes through more congested cells than linear when
  // re-priced linearly.
  std::int64_t linear_cost_of_quadratic = 0;
  qr.route.for_each_cell(
      [&](GridPoint p) { linear_cost_of_quadratic += cost.read(p); });
  std::int64_t linear_cost_of_linear = 0;
  lr.route.for_each_cell(
      [&](GridPoint p) { linear_cost_of_linear += cost.read(p); });
  EXPECT_LE(linear_cost_of_quadratic, linear_cost_of_linear + 3);
}

TEST(CongestionPower, LinearIsDefaultAndMatchesPaperPricing) {
  ExplorerParams params;
  EXPECT_EQ(params.congestion_power, 1);
}

TEST(ThoroughPreset, ExploresMore) {
  Circuit c = make_tiny_test_circuit();
  SequentialParams base;
  SequentialParams thorough;
  thorough.router.explorer = ExplorerParams::thorough();
  SequentialResult rb = route_sequential(c, base);
  SequentialResult rt = route_sequential(c, thorough);
  EXPECT_GT(rt.work.probes, rb.work.probes);
  EXPECT_GT(rt.work.routes_evaluated, rb.work.routes_evaluated);
  // Wider search cannot yield a worse occupancy on the same iteration
  // schedule by much (allow small rip-up interaction noise).
  EXPECT_LE(rt.occupancy_factor, rb.occupancy_factor * 11 / 10);
}

TEST(KnobSweeps, SecondIterationImprovesQuality) {
  // §3: "Performing several of these iterations ... improves the final
  // solution quality."
  Circuit bnre = make_bnre_like();
  SequentialParams one;
  one.iterations = 1;
  SequentialParams two;
  two.iterations = 2;
  SequentialResult r1 = route_sequential(bnre, one);
  SequentialResult r2 = route_sequential(bnre, two);
  EXPECT_LT(r2.circuit_height, r1.circuit_height);
}

}  // namespace
}  // namespace locus
