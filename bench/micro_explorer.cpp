// Microbenchmark for the candidate-pricing hot loop: prefix-sum (bulk span)
// pricing versus the per-cell reference engine, on the Table-6-scale bnrE
// circuit. This is the repo's benchmark baseline for the routing kernel —
// run via scripts/bench_smoke.sh, which records BENCH_explorer.json for
// scripts/bench_compare.py to diff against future PRs.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "bench_main.hpp"
#include "circuit/circuit.hpp"
#include "circuit/generator.hpp"
#include "grid/cost_array.hpp"
#include "route/explorer.hpp"
#include "route/router.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace locus;

/// Forces the per-cell engine at route_wire granularity: a CostArray wrapper
/// without bulk-read support (the pre-PR pricing path).
class PerCellView final : public CostView {
 public:
  explicit PerCellView(CostArray& a) : array_(a) {}
  std::int32_t read(GridPoint p) override { return array_.read(p); }
  void add(GridPoint p, std::int32_t d) override { array_.add(p, d); }

 private:
  CostArray& array_;
};

/// The chain of two-point connections the router prices for the circuit.
std::vector<std::pair<Pin, Pin>> connection_list(const Circuit& circuit) {
  std::vector<std::pair<Pin, Pin>> pairs;
  for (WireId w = 0; w < circuit.num_wires(); ++w) {
    const Wire& wire = circuit.wire(w);
    for (std::size_t i = 1; i < wire.pins.size(); ++i) {
      pairs.emplace_back(wire.pins[i - 1], wire.pins[i]);
    }
  }
  return pairs;
}

/// Occupied cost landscape: route the whole circuit once so pricing runs
/// against realistic congestion, not a zero array.
CostArray make_landscape(const Circuit& circuit) {
  CostArray cost(circuit.channels(), circuit.grids());
  WireRouter router(circuit.channels(), {});
  RouteWorkStats stats;
  for (WireId w = 0; w < circuit.num_wires(); ++w) {
    router.route_wire(circuit.wire(w), cost, stats);
  }
  return cost;
}

/// Prices every connection with `engine`, repeating until `min_seconds` of
/// wall time; returns (best sweep seconds, summed cost, stats of one sweep).
/// Best-of is deliberate: a sweep is milliseconds, so the minimum is far
/// more stable across runs than the mean — which the 15% regression gate
/// in scripts/bench_compare.py needs.
struct SweepResult {
  double seconds_per_sweep;
  std::int64_t total_cost;
  ExploreStats stats;
};

template <typename EngineFn>
SweepResult time_sweeps(const std::vector<std::pair<Pin, Pin>>& pairs,
                        EngineFn&& engine, double min_seconds) {
  SweepResult r{1e100, 0, {}};
  Stopwatch total;
  do {
    r.total_cost = 0;
    r.stats = {};
    Stopwatch sw;
    for (const auto& [a, b] : pairs) {
      ExploreResult res = engine(a, b);
      r.total_cost += res.cost;
      r.stats.cells_probed += res.stats.cells_probed;
      r.stats.routes_evaluated += res.stats.routes_evaluated;
    }
    r.seconds_per_sweep = std::min(r.seconds_per_sweep, sw.seconds());
  } while (total.seconds() < min_seconds);
  return r;
}

Table run_pricing(const Circuit& circuit, const ExplorerParams& params,
                  const char* tag) {
  const std::vector<std::pair<Pin, Pin>> pairs = connection_list(circuit);
  CostArray cost = make_landscape(circuit);
  const std::int32_t channels = circuit.channels();
  PerCellView per_cell(cost);

  const SweepResult bulk = time_sweeps(
      pairs,
      [&](const Pin& a, const Pin& b) {
        return explore_connection(a, b, channels, cost, params);
      },
      0.4);
  const SweepResult ref = time_sweeps(
      pairs,
      [&](const Pin& a, const Pin& b) {
        return explore_connection(a, b, channels, per_cell, params);
      },
      0.4);
  LOCUS_ASSERT_MSG(bulk.total_cost == ref.total_cost &&
                       bulk.stats.cells_probed == ref.stats.cells_probed &&
                       bulk.stats.routes_evaluated == ref.stats.routes_evaluated,
                   "pricing engines diverged");

  const double speedup = ref.seconds_per_sweep / bulk.seconds_per_sweep;
  std::string prefix = tag;
  benchmain::record(prefix + "_percell_s", ref.seconds_per_sweep);
  benchmain::record(prefix + "_bulk_s", bulk.seconds_per_sweep);
  benchmain::record(prefix + "_speedup_x", speedup);
  benchmain::record("cells_probed", static_cast<double>(bulk.stats.cells_probed));
  benchmain::record("routes_evaluated",
                    static_cast<double>(bulk.stats.routes_evaluated));

  Table t;
  t.column("engine", Align::kLeft)
      .column("ms / sweep")
      .column("connections")
      .column("cells probed")
      .column("routes evaluated")
      .column("speedup");
  t.row()
      .cell("per-cell reference")
      .cell(ref.seconds_per_sweep * 1e3, 2)
      .cell(static_cast<long long>(pairs.size()))
      .cell(static_cast<long long>(ref.stats.cells_probed))
      .cell(static_cast<long long>(ref.stats.routes_evaluated))
      .cell(1.0, 2);
  t.row()
      .cell("prefix-sum bulk")
      .cell(bulk.seconds_per_sweep * 1e3, 2)
      .cell(static_cast<long long>(pairs.size()))
      .cell(static_cast<long long>(bulk.stats.cells_probed))
      .cell(static_cast<long long>(bulk.stats.routes_evaluated))
      .cell(speedup, 2);
  return t;
}

/// Whole-router comparison: route the full circuit through WireRouter with
/// each engine and assert the committed arrays agree cell for cell.
Table run_full_route(const Circuit& circuit) {
  WireRouter router(circuit.channels(), {});
  constexpr int kReps = 5;  // best-of, like the pricing sweeps

  CostArray bulk_cost(circuit.channels(), circuit.grids());
  RouteWorkStats bulk_stats;
  double bulk_s = 1e100;
  for (int rep = 0; rep < kReps; ++rep) {
    bulk_cost.fill(0);
    bulk_stats = {};
    Stopwatch sw;
    for (WireId w = 0; w < circuit.num_wires(); ++w) {
      router.route_wire(circuit.wire(w), bulk_cost, bulk_stats);
    }
    bulk_s = std::min(bulk_s, sw.seconds());
  }

  CostArray ref_cost(circuit.channels(), circuit.grids());
  PerCellView per_cell(ref_cost);
  RouteWorkStats ref_stats;
  double ref_s = 1e100;
  for (int rep = 0; rep < kReps; ++rep) {
    ref_cost.fill(0);
    ref_stats = {};
    Stopwatch sw;
    for (WireId w = 0; w < circuit.num_wires(); ++w) {
      router.route_wire(circuit.wire(w), per_cell, ref_stats);
    }
    ref_s = std::min(ref_s, sw.seconds());
  }

  LOCUS_ASSERT_MSG(bulk_cost == ref_cost, "routed arrays diverged");
  LOCUS_ASSERT(bulk_stats.probes == ref_stats.probes);

  benchmain::record("route_percell_s", ref_s);
  benchmain::record("route_bulk_s", bulk_s);
  benchmain::record("route_speedup_x", ref_s / bulk_s);

  Table t;
  t.column("engine", Align::kLeft).column("route ms").column("probes").column("identical");
  t.row()
      .cell("per-cell reference")
      .cell(ref_s * 1e3, 2)
      .cell(static_cast<long long>(ref_stats.probes))
      .cell("yes");
  t.row()
      .cell("prefix-sum bulk")
      .cell(bulk_s * 1e3, 2)
      .cell(static_cast<long long>(bulk_stats.probes))
      .cell("yes");
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  locus::Circuit bnre = locus::make_bnre_like();
  return locus::benchmain::run(
      argc, argv, "micro_explorer: candidate pricing engines (bnrE scale)",
      {{"pricing sweep, default params",
        [&] { return run_pricing(bnre, {}, "default"); }},
       {"pricing sweep, thorough params",
        [&] { return run_pricing(bnre, locus::ExplorerParams::thorough(), "thorough"); }},
       {"full circuit route", [&] { return run_full_route(bnre); }}});
}
