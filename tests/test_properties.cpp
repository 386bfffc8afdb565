// Cross-module property tests: exhaustive small-grid sweeps and randomized
// invariants that tie the pieces together.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "circuit/generator.hpp"
#include "geom/partition.hpp"
#include "grid/cost_array.hpp"
#include "grid/delta_array.hpp"
#include "grid/tiled_cost_array.hpp"
#include "msg/view.hpp"
#include "route/explorer.hpp"
#include "route/quality.hpp"
#include "route/router.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/topology.hpp"
#include "support/rng.hpp"
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

/// The per-cell reference engine: builds every candidate in enumeration
/// order (single-channel for c ascending, then Z for (c1, c2, xj) ascending)
/// and prices it by probing each of its cells, in Route::for_each_cell
/// order, with one CostView::read(). The explorer's prefix-sum pricing must
/// match it bit for bit, and the cells it reads are the ones the explorer
/// writes through a view's read tracer.
ExploreResult explore_reference(const Pin& a, const Pin& b, std::int32_t channels,
                                CostView& view, const ExplorerParams& params) {
  const std::int32_t c_lo = std::max<std::int32_t>(
      0, std::min(a.channel_above(), b.channel_above()) - params.channel_slack);
  const std::int32_t c_hi = std::min<std::int32_t>(
      channels - 1, std::max(a.channel_below(), b.channel_below()) + params.channel_slack);
  const std::int32_t x_lo = std::min(a.x, b.x);
  const std::int32_t x_hi = std::max(a.x, b.x);
  const std::int32_t stride =
      x_hi - x_lo >= 2 ? std::max<std::int32_t>(
                             1, (x_hi - x_lo) / std::max<std::int32_t>(1, params.jog_samples))
                       : 0;
  const auto entry_channel = [](const Pin& pin, std::int32_t target) {
    return target <= pin.row ? pin.channel_above() : pin.channel_below();
  };

  ExploreResult best;
  bool have_best = false;
  const auto consider = [&](std::int32_t c1, std::int32_t c2, std::int32_t xj) {
    const std::int32_t ea = entry_channel(a, c1);
    const std::int32_t eb = entry_channel(b, c2);
    Route route;
    route.append(Segment{GridPoint{ea, a.x}, GridPoint{c1, a.x}});
    if (c1 == c2) {
      route.append(Segment{GridPoint{c1, a.x}, GridPoint{c1, b.x}});
    } else {
      route.append(Segment{GridPoint{c1, a.x}, GridPoint{c1, xj}});
      route.append(Segment{GridPoint{c1, xj}, GridPoint{c2, xj}});
      route.append(Segment{GridPoint{c2, xj}, GridPoint{c2, b.x}});
    }
    route.append(Segment{GridPoint{c2, b.x}, GridPoint{eb, b.x}});

    std::int64_t cost = 0;
    route.for_each_cell([&](GridPoint p) {
      const std::int64_t v = view.read(p);
      cost += params.congestion_power == 2 ? v * v : v;
      ++best.stats.cells_probed;
    });
    ++best.stats.routes_evaluated;
    if (!have_best || cost < best.cost) {
      best.route = std::move(route);
      best.cost = cost;
      have_best = true;
    }
  };

  for (std::int32_t c = c_lo; c <= c_hi; ++c) consider(c, c, 0);
  if (stride > 0) {
    for (std::int32_t c1 = c_lo; c1 <= c_hi; ++c1) {
      for (std::int32_t c2 = c_lo; c2 <= c_hi; ++c2) {
        if (c1 == c2) continue;  // equals the single-channel shape
        for (std::int32_t xj = x_lo + stride; xj < x_hi; xj += stride) {
          if (xj == a.x || xj == b.x) continue;  // duplicates the single-channel shape
          consider(c1, c2, xj);
        }
      }
    }
  }
  return best;
}

/// CostView wrapper that offers the reference engine only the wrapped
/// view's per-cell read(): its bulk reads fall back to per-cell reads, and
/// it has no read tracer.
class NonBulkView final : public CostView {
 public:
  explicit NonBulkView(CostView& v) : view_(v) {}
  std::int32_t read(GridPoint p) override { return view_.read(p); }
  void add(GridPoint p, std::int32_t d) override { view_.add(p, d); }

 private:
  CostView& view_;
};

/// Every read path must match the per-cell reference engine run over a
/// NonBulkView of the plain CostArray.
/// The node view is the message passing one: a tiled ViewWithDelta holding
/// the same cells, small tiles so window reads cross tile edges. Negative
/// raw cells model a drifted node view; every read clamps them at zero.
/// With `forced_scalar` false the explorer, reading whole windows, runs on
/// the CostArray and on the node view; with it true the reference engine
/// runs on the node view, so its per-cell reads must clamp exactly as
/// CostArray's do. Same cost, same route and same work counters, bit for
/// bit.
void expect_bulk_matches_reference(CostArray& cost, const Pin& a, const Pin& b,
                                   const ExplorerParams& params, bool forced_scalar,
                                   const char* what) {
  const std::int32_t channels = cost.channels();
  constexpr TileDims kTiles{2, 16};
  TiledCostArray tiled(channels, cost.grids(), kTiles);
  std::vector<std::int32_t> cells;
  cost.read_rect(cost.bounds(), cells);
  tiled.write_rect(tiled.bounds(), cells);
  Partition part(channels, cost.grids(), MeshShape{1, 1});
  DeltaArray delta(part, kTiles);
  ViewWithDelta node_view(tiled, delta);
  NonBulkView per_cell(cost);

  const ExploreResult ref = explore_reference(a, b, channels, per_cell, params);
  const auto expect_same = [&](const ExploreResult& got, const char* via) {
    ASSERT_EQ(got.cost, ref.cost) << what << " via " << via << " a=(" << a.x << ","
                                  << a.row << ") b=(" << b.x << "," << b.row << ")";
    ASSERT_TRUE(got.route == ref.route) << what << " via " << via;
    ASSERT_EQ(got.stats.cells_probed, ref.stats.cells_probed) << what << " via " << via;
    ASSERT_EQ(got.stats.routes_evaluated, ref.stats.routes_evaluated)
        << what << " via " << via;
  };
  if (forced_scalar) {
    NonBulkView node_per_cell(node_view);
    expect_same(explore_reference(a, b, channels, node_per_cell, params),
                "per-cell ViewWithDelta");
    return;
  }
  expect_same(explore_connection(a, b, channels, cost, params), "CostArray");
  expect_same(explore_connection(a, b, channels, node_view, params), "ViewWithDelta");
}

/// The parameter is expect_bulk_matches_reference's `forced_scalar`.
class BulkVsReferenceMatrix : public ::testing::TestWithParam<bool> {};

/// Random landscapes (odd trials drifted negative), then flat ones: all
/// cells 0 (drifted, so raw values differ but every read is 0) and all
/// cells one positive constant. On a flat landscape every Z candidate of a
/// channel pair ties, and so do the cheapest single-channel and Z shapes,
/// so those trials pin the first-in-enumeration rule.
TEST_P(BulkVsReferenceMatrix, BulkPricingMatchesReferenceBitForBit) {
  constexpr int kRandomTrials = 60;
  constexpr int kFlatTrials = 16;
  Rng rng(20'260'806);
  int tuples = 0;
  for (int trial = 0; trial < kRandomTrials + kFlatTrials; ++trial) {
    const std::int32_t channels = 3 + static_cast<std::int32_t>(rng.bounded(10));
    const std::int32_t grids = 8 + static_cast<std::int32_t>(rng.bounded(120));
    const bool flat = trial >= kRandomTrials;
    const bool flat_zero = flat && trial % 2 == 0;
    CostArray cost =
        flat ? CostArray(channels, grids,
                         flat_zero ? 0 : 1 + static_cast<std::int32_t>(rng.bounded(9)))
             : test::make_random_landscape(
                   channels, grids, 50'000 + static_cast<std::uint64_t>(trial),
                   1 + rng.bounded(9));
    if ((!flat && trial % 2 == 1) || flat_zero) {
      // Drift some cells negative, as a message passing view does when an
      // absolute region update lands over a local rip-up.
      for (std::int32_t k = 0; k < grids; ++k) {
        GridPoint p{static_cast<std::int32_t>(rng.bounded(channels)),
                    static_cast<std::int32_t>(rng.bounded(grids))};
        cost.set(p, -static_cast<std::int32_t>(1 + rng.bounded(3)));
      }
    }
    ExplorerParams params;
    params.channel_slack = static_cast<std::int32_t>(rng.bounded(3));
    params.jog_samples = 1 + static_cast<std::int32_t>(rng.bounded(16));
    params.congestion_power = rng.chance(0.5) ? 1 : 2;
    for (int pair = 0; pair < 4; ++pair, ++tuples) {
      Pin a{static_cast<std::int32_t>(rng.bounded(grids)),
            static_cast<std::int32_t>(rng.bounded(channels - 1))};
      Pin b{static_cast<std::int32_t>(rng.bounded(grids)),
            static_cast<std::int32_t>(rng.bounded(channels - 1))};
      SCOPED_TRACE(::testing::Message() << "trial " << trial);
      expect_bulk_matches_reference(cost, a, b, params, GetParam(),
                                    flat ? (flat_zero ? "flat 0" : "flat k") : "random");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  ASSERT_GE(tuples, 300);
}

INSTANTIATE_TEST_SUITE_P(VectorAndScalar, BulkVsReferenceMatrix, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& pi) {
                           return pi.param ? "ForcedScalar" : "Vector";
                         });

/// On a flat landscape the single-channel candidates, enumerated first,
/// always win, so the tie among Z candidates never shows in the result.
/// Here a zero-cost plateau makes the Z pair (1, 4) beat every
/// single-channel route, and three of its sampled jog columns (14, 18, 22)
/// tie at cost 0: both engines must keep the first, xj = 14. The plateau is
/// written once as 0 and once drifted negative (read as 0).
TEST(BulkVsReferenceMatrixTies, TiedZCandidatesKeepFirstJog) {
  constexpr std::int32_t kChannels = 6, kGrids = 40, kHigh = 9;
  const Pin a{2, 1};   // enters channel 1 directly
  const Pin b{37, 3};  // enters channel 4 directly
  // Default params: stride 35 / 8 = 4, jog samples xj = 6, 10, ..., 34.
  const ExplorerParams params;
  for (const bool drifted : {false, true}) {
    CostArray cost(kChannels, kGrids, kHigh);
    for (std::int32_t c = 0; c < kChannels; ++c) {
      for (std::int32_t x = 0; x < kGrids; ++x) {
        const bool plateau = (c == 1 && x <= 25) || (c == 4 && x >= 14) ||
                             (x >= 14 && x <= 25);
        if (plateau) cost.set({c, x}, drifted ? -(1 + (c + x) % 3) : 0);
      }
    }
    for (const bool forced_scalar : {false, true}) {
      expect_bulk_matches_reference(cost, a, b, params, forced_scalar,
                                    drifted ? "drifted" : "plateau");
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }

    Route want;
    want.append(Segment{GridPoint{1, 2}, GridPoint{1, 2}});
    want.append(Segment{GridPoint{1, 2}, GridPoint{1, 14}});
    want.append(Segment{GridPoint{1, 14}, GridPoint{4, 14}});
    want.append(Segment{GridPoint{4, 14}, GridPoint{4, 37}});
    want.append(Segment{GridPoint{4, 37}, GridPoint{4, 37}});
    const ExploreResult got = explore_connection(a, b, kChannels, cost, params);
    EXPECT_EQ(got.cost, 0);
    EXPECT_TRUE(got.route == want) << (drifted ? "drifted" : "plateau");
  }
}

/// Logs the cells a pricer reads: each per-cell read(), and each run written
/// through read_tracer() expanded to its cells in run order. Window loads
/// (read_row, read_rows) go to the array unlogged.
class RecordingView final : public CostView, private ReadTracer {
 public:
  explicit RecordingView(CostArray& array) : array_(array) {}

  std::int32_t read(GridPoint p) override {
    cells.push_back(p);
    return array_.read(p);
  }
  void add(GridPoint p, std::int32_t d) override { array_.add(p, d); }
  void read_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                std::span<std::int32_t> span_out) override {
    array_.read_row(channel, x_lo, x_hi, span_out);
  }
  void read_rows(std::int32_t c_lo, std::int32_t c_hi, std::int32_t x_lo,
                 std::int32_t x_hi, std::span<std::int32_t> span_out) override {
    array_.read_rows(c_lo, c_hi, x_lo, x_hi, span_out);
  }
  ReadTracer* read_tracer() override { return this; }

  std::vector<GridPoint> cells;

 private:
  void read_run(GridPoint from, GridPoint to) override {
    Route run;
    run.append(Segment{from, to});  // asserts the run is straight
    run.for_each_cell([&](GridPoint p) { cells.push_back(p); });
  }

  CostArray& array_;
};

/// The explorer writes through the read tracer exactly the cells the
/// per-cell reference engine reads, in the same order, on random, drifted
/// and flat landscapes. Every pin pair runs at channel_slack 0-2 and
/// jog_samples 1 and 16; the pairs include pins in one column, pins in one
/// channel, a.x > b.x, and pins in the first and last cell rows, whose
/// windows clamp at channel 0 and at channels - 1.
TEST(ExplorerTrace, RunsEqualReferenceReadsCellForCell) {
  Rng rng(20'261'019);
  int compared = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const std::int32_t channels = 3 + static_cast<std::int32_t>(rng.bounded(8));
    const std::int32_t grids = 24 + static_cast<std::int32_t>(rng.bounded(80));
    const int kind = trial % 3;  // 0 random, 1 drifted, 2 flat
    CostArray cost = kind == 2 ? CostArray(channels, grids, trial % 2 == 0 ? 0 : 3)
                               : test::make_random_landscape(
                                     channels, grids, 70'000 + static_cast<std::uint64_t>(trial), 8);
    if (kind == 1) {
      for (std::int32_t k = 0; k < grids; ++k) {
        cost.set(GridPoint{static_cast<std::int32_t>(rng.bounded(channels)),
                           static_cast<std::int32_t>(rng.bounded(grids))},
                 -static_cast<std::int32_t>(1 + rng.bounded(3)));
      }
    }
    const auto any_x = [&] { return static_cast<std::int32_t>(rng.bounded(grids)); };
    const auto any_row = [&] { return static_cast<std::int32_t>(rng.bounded(channels - 1)); };
    const std::int32_t last_row = channels - 2;
    const std::int32_t x1 = static_cast<std::int32_t>(rng.bounded(grids / 3));
    const std::int32_t x2 = grids - 1 - static_cast<std::int32_t>(rng.bounded(grids / 3));
    const struct {
      Pin a, b;
      const char* what;
    } pairs[] = {
        {Pin{any_x(), any_row()}, Pin{any_x(), any_row()}, "random"},
        {Pin{x1, 0}, Pin{x1, last_row}, "same column"},
        {Pin{x1, any_row()}, Pin{x1, any_row()}, "same column, random rows"},
        {Pin{x1, last_row}, Pin{x2, last_row}, "same channel"},
        {Pin{x2, any_row()}, Pin{x1, any_row()}, "a.x > b.x"},
        {Pin{x1, 0}, Pin{x2, last_row}, "clamped both ends"},
        {Pin{x2, last_row}, Pin{x1, 0}, "clamped, a.x > b.x"},
    };
    for (const std::int32_t slack : {0, 1, 2}) {
      for (const std::int32_t jogs : {1, 16}) {
        ExplorerParams params;
        params.channel_slack = slack;
        params.jog_samples = jogs;
        params.congestion_power = trial % 4 == 3 ? 2 : 1;
        for (const auto& [a, b, what] : pairs) {
          SCOPED_TRACE(::testing::Message()
                       << "trial " << trial << " " << what << " slack " << slack
                       << " jogs " << jogs << " a=(" << a.x << "," << a.row << ") b=("
                       << b.x << "," << b.row << ")");
          RecordingView ref_view(cost);
          RecordingView got_view(cost);
          const ExploreResult ref = explore_reference(a, b, channels, ref_view, params);
          const ExploreResult got = explore_connection(a, b, channels, got_view, params);
          ASSERT_EQ(got.cost, ref.cost);
          ASSERT_TRUE(got.route == ref.route);
          ASSERT_EQ(ref_view.cells.size(), static_cast<std::size_t>(ref.stats.cells_probed));
          ASSERT_EQ(got_view.cells.size(), ref_view.cells.size());
          for (std::size_t i = 0; i < ref_view.cells.size(); ++i) {
            ASSERT_TRUE(got_view.cells[i] == ref_view.cells[i])
                << "cell " << i << ": got (" << got_view.cells[i].channel << ","
                << got_view.cells[i].x << ") want (" << ref_view.cells[i].channel << ","
                << ref_view.cells[i].x << ")";
          }
          ++compared;
        }
      }
    }
  }
  ASSERT_EQ(compared, 12 * 3 * 2 * 7);
}

/// route_wire writes every probe through the read tracer exactly once: the
/// explorer's candidate cells, then the final path's runs in stored order.
TEST(ExplorerTrace, RouteWireTracesEveryProbe) {
  const Circuit circuit = make_tiny_test_circuit();
  CostArray cost(circuit.channels(), circuit.grids());
  WireRouter router(circuit.channels(), {});
  for (WireId w = 0; w < circuit.num_wires(); ++w) {
    RecordingView view(cost);
    RouteWorkStats stats;
    const WireRoute route = router.route_wire(circuit.wire(w), view, stats);
    const std::vector<GridPoint> cells = test::expand_runs(route.runs);
    ASSERT_EQ(view.cells.size(), static_cast<std::size_t>(stats.probes)) << "wire " << w;
    ASSERT_GE(view.cells.size(), cells.size());
    EXPECT_TRUE(std::equal(cells.begin(), cells.end(),
                           view.cells.end() - static_cast<std::ptrdiff_t>(cells.size())))
        << "wire " << w;
  }
}

/// collect_row_runs' interval-union sweep against the brute-force
/// specification: materialize every covered cell, sort, dedupe. The runs
/// must also be strictly ordered and maximal (a gap of at least one cell
/// between two runs of a channel).
TEST(RouterProperty2, CollectRowRunsMatchesSortBasedReference) {
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
    const std::vector<RowRun> runs = collect_row_runs(routes);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      ASSERT_LE(runs[i].x_lo, runs[i].x_hi) << "trial " << trial << " run " << i;
      if (i == 0) continue;
      const RowRun& prev = runs[i - 1];
      ASSERT_TRUE(prev.channel < runs[i].channel ||
                  (prev.channel == runs[i].channel && prev.x_hi + 1 < runs[i].x_lo))
          << "trial " << trial << " run " << i << " not after run " << i - 1
          << " with a gap";
    }
    const std::vector<GridPoint> got = test::expand_runs(runs);
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
