// Exact work counts of two fixed host-side workloads: candidate pricing over
// the bnrE-scale circuit's occupied landscape (plain and through a read
// tracer), and a batch of POD events through the EventQueue's 4-ary heap.
// Host time for the same code is measured end to end by perfbench
// (route.seq_s, route.ns_per_probe, shm.ns_per_ref, sim.host_ns_per_event);
// these tests pin the work, which must not drift with the host.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "circuit/generator.hpp"
#include "grid/cost_array.hpp"
#include "route/explorer.hpp"
#include "route/router.hpp"
#include "sim/event_queue.hpp"

namespace locus {
namespace {

/// A CostArray whose read tracer only counts the runs written through it:
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

/// The bnrE-scale circuit, its two-point connections in router order, and
/// the landscape left by routing every wire once, so pricing runs against
/// realistic congestion rather than a zero array.
struct BnreLandscape {
  Circuit circuit = make_bnre_like();
  std::vector<std::pair<Pin, Pin>> pairs;
  CostArray cost{circuit.channels(), circuit.grids()};

  BnreLandscape() {
    WireRouter router(circuit.channels(), {});
    RouteWorkStats stats;
    for (WireId w = 0; w < circuit.num_wires(); ++w) {
      const Wire& wire = circuit.wire(w);
      for (std::size_t i = 1; i < wire.pins.size(); ++i) {
        pairs.emplace_back(wire.pins[i - 1], wire.pins[i]);
      }
      router.route_wire(wire, cost, stats);
    }
  }

  /// Prices every connection once through `view`; returns the summed cost
  /// and work counters.
  std::pair<std::int64_t, ExploreStats> sweep(CostView& view, const ExplorerParams& params) {
    std::int64_t total_cost = 0;
    ExploreStats stats;
    for (const auto& [a, b] : pairs) {
      const ExploreResult r = explore_connection(a, b, circuit.channels(), view, params);
      total_cost += r.cost;
      stats.cells_probed += r.stats.cells_probed;
      stats.routes_evaluated += r.stats.routes_evaluated;
    }
    return {total_cost, stats};
  }
};

TEST(ExplorerWorkCounts, BnreSweepDefaultParams) {
  BnreLandscape land;
  const ExploreStats stats = land.sweep(land.cost, {}).second;
  EXPECT_EQ(stats.cells_probed, 4'719'089);
  EXPECT_EQ(stats.routes_evaluated, 145'269);
}

TEST(ExplorerWorkCounts, BnreSweepThoroughParams) {
  BnreLandscape land;
  const ExploreStats stats = land.sweep(land.cost, ExplorerParams::thorough()).second;
  EXPECT_EQ(stats.cells_probed, 13'254'969);
  EXPECT_EQ(stats.routes_evaluated, 348'033);
}

// The runs written through the read tracer cover exactly the cells probed,
// and tracing changes no price.
TEST(ExplorerWorkCounts, BnreTracedSweepRunsCoverProbedCells) {
  BnreLandscape land;
  const auto [plain_cost, plain] = land.sweep(land.cost, {});
  CountingView traced(land.cost);
  const auto [traced_cost, stats] = land.sweep(traced, {});
  EXPECT_EQ(traced_cost, plain_cost);
  EXPECT_EQ(stats.cells_probed, plain.cells_probed);
  EXPECT_EQ(traced.runs, 668'804);
  EXPECT_EQ(traced.cells, 4'719'089);
}

// 20000 POD events over 97 distinct times, all pending before the first
// dispatch.
TEST(EventQueueWorkCounts, PodBatchThroughTheHeap) {
  struct Sink {
    std::int64_t value = 0;
    static void bump(void* ctx, SimTime, std::uint64_t, std::uint64_t) {
      ++static_cast<Sink*>(ctx)->value;
    }
  };
  EventQueue q;
  Sink sink;
  const EventQueue::HandlerId h = q.add_handler(&Sink::bump, &sink);
  for (std::int64_t i = 0; i < 20'000; ++i) {
    q.schedule(i % 97, h, static_cast<std::uint64_t>(i));
  }
  q.run();
  EXPECT_EQ(sink.value, 20'000);
  EXPECT_EQ(q.executed(), 20'000u);
  EXPECT_EQ(q.peak_pending(), 20'000u);
}

}  // namespace
}  // namespace locus
