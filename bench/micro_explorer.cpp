// Microbenchmark for the candidate-pricing hot loop on the Table-6-scale
// bnrE circuit: prefix-sum pricing alone, pricing that also writes every
// candidate's cells as runs into a read tracer (what the shared memory
// build does while it captures its reference trace), and the whole router.
// This is the repo's benchmark baseline for the routing kernel — run via
// scripts/bench_smoke.sh, which records BENCH_explorer.json for
// scripts/bench_compare.py to diff against future PRs.
#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
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

/// A CostArray whose read tracer only counts what is written through it:
/// the shared memory build's traced pricing without the trace storage.
class CountingView final : public CostView, private ReadTracer {
 public:
  explicit CountingView(CostArray& a) : array_(a) {}
  std::int32_t read(GridPoint p) override { return array_.read(p); }
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

  std::int64_t runs = 0;
  std::int64_t cells = 0;

 private:
  void read_run(GridPoint from, GridPoint to) override {
    ++runs;
    cells += manhattan(from, to) + 1;
  }

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

  const SweepResult bulk = time_sweeps(
      pairs,
      [&](const Pin& a, const Pin& b) {
        return explore_connection(a, b, channels, cost, params);
      },
      0.4);

  std::string prefix = tag;
  benchmain::record(prefix + "_bulk_s", bulk.seconds_per_sweep);
  benchmain::record("cells_probed", static_cast<double>(bulk.stats.cells_probed));
  benchmain::record("routes_evaluated",
                    static_cast<double>(bulk.stats.routes_evaluated));

  Table t;
  t.column("ms / sweep")
      .column("connections")
      .column("cells probed")
      .column("routes evaluated");
  t.row()
      .cell(bulk.seconds_per_sweep * 1e3, 2)
      .cell(static_cast<long long>(pairs.size()))
      .cell(static_cast<long long>(bulk.stats.cells_probed))
      .cell(static_cast<long long>(bulk.stats.routes_evaluated));
  return t;
}

/// Pricing with a read tracer: every candidate's cells are written as runs
/// into a counting tracer. The runs must cover exactly the cells probed.
Table run_traced_pricing(const Circuit& circuit) {
  const std::vector<std::pair<Pin, Pin>> pairs = connection_list(circuit);
  CostArray cost = make_landscape(circuit);
  const std::int32_t channels = circuit.channels();
  const ExplorerParams params;

  CountingView timed(cost);
  const SweepResult traced = time_sweeps(
      pairs,
      [&](const Pin& a, const Pin& b) {
        return explore_connection(a, b, channels, timed, params);
      },
      0.4);

  CountingView once(cost);
  std::int64_t total_cost = 0;
  for (const auto& [a, b] : pairs) {
    total_cost += explore_connection(a, b, channels, once, params).cost;
  }
  LOCUS_ASSERT_MSG(once.cells == traced.stats.cells_probed &&
                       total_cost == traced.total_cost,
                   "traced runs do not cover the probed cells");

  benchmain::record("traced_s", traced.seconds_per_sweep);
  benchmain::record("traced_runs", static_cast<double>(once.runs));
  benchmain::record("traced_cells", static_cast<double>(once.cells));

  Table t;
  t.column("ms / sweep").column("runs written").column("cells traced");
  t.row()
      .cell(traced.seconds_per_sweep * 1e3, 2)
      .cell(static_cast<long long>(once.runs))
      .cell(static_cast<long long>(once.cells));
  return t;
}

/// Whole-router timing: route the full circuit through WireRouter.
Table run_full_route(const Circuit& circuit) {
  WireRouter router(circuit.channels(), {});
  CostArray cost(circuit.channels(), circuit.grids());
  RouteWorkStats stats;
  double route_s = 1e100;
  Stopwatch total;
  do {  // best-of over 0.4 s, like the pricing sweeps
    cost.fill(0);
    stats = {};
    Stopwatch sw;
    for (WireId w = 0; w < circuit.num_wires(); ++w) {
      router.route_wire(circuit.wire(w), cost, stats);
    }
    route_s = std::min(route_s, sw.seconds());
  } while (total.seconds() < 0.4);

  benchmain::record("route_bulk_s", route_s);

  Table t;
  t.column("route ms").column("probes");
  t.row().cell(route_s * 1e3, 2).cell(static_cast<long long>(stats.probes));
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
       {"traced pricing sweep, default params",
        [&] { return run_traced_pricing(bnre); }},
       {"full circuit route", [&] { return run_full_route(bnre); }}});
}
