// Microbenchmarks for the CBS-like simulator substrate: POD event dispatch
// and a wormhole network injection storm.
// Run via scripts/bench_smoke.sh, which records BENCH_network.json for
// scripts/bench_compare.py to diff against future PRs.
#include <algorithm>
#include <cstdint>

#include "bench_main.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/topology.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace locus;

constexpr std::int64_t kBatch = 20000;

/// Fills a queue with `kBatch` events spread over 97 distinct times and runs
/// it dry; repeats until `min_seconds`. Returns the best (minimum) batch
/// seconds observed — far more stable run to run than the mean, which the
/// 15% regression gate in scripts/bench_compare.py needs.
template <typename FillFn>
double time_batches(FillFn&& fill, double min_seconds) {
  double best = 1e100;
  Stopwatch total;
  do {
    EventQueue q;
    Stopwatch sw;
    fill(q);
    q.run();
    best = std::min(best, sw.seconds());
  } while (total.seconds() < min_seconds);
  return best;
}

Table run_event_queue() {
  struct Counter {
    std::int64_t value = 0;
    static void bump(void* ctx, SimTime, std::uint64_t, std::uint64_t) {
      ++static_cast<Counter*>(ctx)->value;
    }
  };

  std::int64_t pod_sink = 0;
  std::size_t peak = 0;
  std::uint64_t executed = 0;
  const double pod_s = time_batches(
      [&](EventQueue& q) {
        Counter counter;
        const EventQueue::HandlerId h = q.add_handler(&Counter::bump, &counter);
        for (std::int64_t i = 0; i < kBatch; ++i) {
          q.schedule(i % 97, h, static_cast<std::uint64_t>(i));
        }
        peak = q.peak_pending();
        q.run();
        executed = q.executed();
        pod_sink = counter.value;
      },
      0.25);
  LOCUS_ASSERT(pod_sink == kBatch);

  benchmain::record("pod_dispatch_s", pod_s);
  benchmain::record("events_executed", static_cast<double>(executed));
  benchmain::record("peak_queue_depth", static_cast<double>(peak));

  Table t;
  t.column("dispatch", Align::kLeft)
      .column("ms / batch")
      .column("events")
      .column("Mevents/s");
  t.row()
      .cell("POD handler")
      .cell(pod_s * 1e3, 3)
      .cell(static_cast<long long>(kBatch))
      .cell(static_cast<double>(kBatch) / pod_s / 1e6, 2);
  return t;
}

Table run_network_storm() {
  Topology topo({4, 4}, Topology::Edges::kMesh);
  constexpr int kPackets = 4096;

  std::uint64_t delivered = 0;
  std::uint64_t executed = 0;
  std::size_t peak = 0;
  std::size_t in_flight_after = 0;
  double storm_s = 1e100;
  Stopwatch total;
  do {
    EventQueue q;
    delivered = 0;
    Stopwatch sw;
    Network net(topo, {}, q, [&](const Packet&, SimTime) { ++delivered; });
    for (int i = 0; i < kPackets; ++i) {
      Packet p;
      p.src = i % 16;
      p.dst = (i * 7 + 1) % 16;
      if (p.dst == p.src) p.dst = (p.dst + 1) % 16;
      p.type = 1;
      p.bytes = 64;
      net.schedule_inject(std::move(p), (i % 32) * 50);
    }
    q.run();
    storm_s = std::min(storm_s, sw.seconds());
    executed = q.executed();
    peak = q.peak_pending();
    in_flight_after = net.packets_in_flight();
  } while (total.seconds() < 0.25);
  LOCUS_ASSERT(delivered == kPackets);
  LOCUS_ASSERT_MSG(in_flight_after == 0, "arena leaked slots");

  benchmain::record("storm_s", storm_s);
  benchmain::record("packets_delivered", static_cast<double>(delivered));
  benchmain::record("events_executed", static_cast<double>(executed));
  benchmain::record("peak_queue_depth", static_cast<double>(peak));

  Table t;
  t.column("metric", Align::kLeft).column("value");
  t.row().cell("ms / storm").cell(storm_s * 1e3, 3);
  t.row().cell("packets delivered").cell(static_cast<long long>(delivered));
  t.row().cell("events executed").cell(static_cast<long long>(executed));
  t.row().cell("peak queue depth").cell(static_cast<long long>(peak));
  t.row().cell("kpackets/s").cell(static_cast<double>(kPackets) / storm_s / 1e3, 1);
  return t;
}

Table run_topology_route() {
  Topology topo({8, 8}, Topology::Edges::kMesh);
  constexpr int kRoutes = 100000;
  std::size_t hops = 0;
  double route_s = 1e100;
  Stopwatch total;
  do {
    hops = 0;
    Stopwatch sw;
    for (int i = 0; i < kRoutes; ++i) {
      hops += topo.route(i % 64, (i * 13 + 5) % 64).size();
    }
    route_s = std::min(route_s, sw.seconds());
  } while (total.seconds() < 0.25);

  benchmain::record("topo_route_s", route_s);

  Table t;
  t.column("metric", Align::kLeft).column("value");
  t.row().cell("ms / 100k routes").cell(route_s * 1e3, 3);
  t.row().cell("total hops").cell(static_cast<long long>(hops));
  return t;
}

/// The same injection storm priced under each link cost model. The
/// simulated outcomes (finish time, stalls, byte-hops) are deterministic
/// exact-match counters; the wall-clock per model is the gated timing.
Table run_link_cost_models() {
  Topology topo({4, 4}, Topology::Edges::kMesh);
  constexpr int kPackets = 4096;
  const LinkCostModelKind kinds[] = {
      LinkCostModelKind::kFixed,
      LinkCostModelKind::kMd1,
  };

  Table t;
  t.column("model", Align::kLeft).column("ms / storm").column("finish (us)")
      .column("byte-hops").column("stalls").column("stall ms");
  for (LinkCostModelKind kind : kinds) {
    std::uint64_t delivered = 0;
    SimTime finish = 0;
    std::uint64_t byte_hops = 0;
    std::uint64_t stalls = 0;
    SimTime stall_ns = 0;
    double storm_s = 1e100;
    Stopwatch total;
    do {
      EventQueue q;
      delivered = 0;
      finish = 0;
      Stopwatch sw;
      NetworkParams params;
      params.cost.kind = kind;
      Network net(topo, params, q, [&](const Packet&, SimTime at) {
        ++delivered;
        finish = std::max(finish, at);
      });
      for (int i = 0; i < kPackets; ++i) {
        Packet p;
        p.src = i % 16;
        p.dst = (i * 7 + 1) % 16;
        if (p.dst == p.src) p.dst = (p.dst + 1) % 16;
        p.type = 1;
        p.bytes = 64;
        net.schedule_inject(std::move(p), (i % 32) * 50);
      }
      q.run();
      storm_s = std::min(storm_s, sw.seconds());
      byte_hops = net.stats().byte_hops;
      const LinkUsageSummary usage = net.link_usage(finish);
      stalls = usage.stalls;
      stall_ns = usage.stall_ns;
    } while (total.seconds() < 0.25);
    LOCUS_ASSERT(delivered == kPackets);

    const std::string prefix = link_cost_model_name(kind);
    benchmain::record(prefix + "_storm_s", storm_s);
    benchmain::record(prefix + "_finish_ns", static_cast<double>(finish));
    benchmain::record(prefix + "_byte_hops", static_cast<double>(byte_hops));
    benchmain::record(prefix + "_stalls", static_cast<double>(stalls));
    t.row().cell(link_cost_model_name(kind)).cell(storm_s * 1e3, 3)
        .cell(static_cast<double>(finish) / 1e3, 1)
        .cell(static_cast<unsigned long long>(byte_hops))
        .cell(static_cast<unsigned long long>(stalls))
        .cell(static_cast<double>(stall_ns) / 1e6, 2);
  }
  return t;
}

/// Up/down routing and an injection storm on a 16-leaf binary fat tree —
/// the tree path lengths and M/D/1 queueing on its fat upper links.
Table run_fat_tree() {
  Topology topo = Topology::fat_tree(16, 2);
  constexpr int kRoutes = 100000;
  std::size_t hops = 0;
  double route_s = 1e100;
  Stopwatch total;
  do {
    hops = 0;
    Stopwatch sw;
    for (int i = 0; i < kRoutes; ++i) {
      hops += topo.route(i % 16, (i * 13 + 5) % 16).size();
    }
    route_s = std::min(route_s, sw.seconds());
  } while (total.seconds() < 0.25);

  constexpr int kPackets = 4096;
  std::uint64_t delivered = 0;
  SimTime finish = 0;
  std::uint64_t stalls = 0;
  double storm_s = 1e100;
  Stopwatch storm_total;
  do {
    EventQueue q;
    delivered = 0;
    finish = 0;
    Stopwatch sw;
    NetworkParams params;
    params.cost.kind = LinkCostModelKind::kMd1;
    Network net(topo, params, q, [&](const Packet&, SimTime at) {
      ++delivered;
      finish = std::max(finish, at);
    });
    for (int i = 0; i < kPackets; ++i) {
      Packet p;
      p.src = i % 16;
      p.dst = (i * 7 + 1) % 16;
      if (p.dst == p.src) p.dst = (p.dst + 1) % 16;
      p.type = 1;
      p.bytes = 64;
      net.schedule_inject(std::move(p), (i % 32) * 50);
    }
    q.run();
    storm_s = std::min(storm_s, sw.seconds());
    stalls = net.link_usage(finish).stalls;
  } while (storm_total.seconds() < 0.25);
  LOCUS_ASSERT(delivered == kPackets);

  benchmain::record("fat_route_s", route_s);
  benchmain::record("fat_hops", static_cast<double>(hops));
  benchmain::record("fat_storm_s", storm_s);
  benchmain::record("fat_finish_ns", static_cast<double>(finish));
  benchmain::record("fat_md1_stalls", static_cast<double>(stalls));

  Table t;
  t.column("metric", Align::kLeft).column("value");
  t.row().cell("ms / 100k routes").cell(route_s * 1e3, 3);
  t.row().cell("total hops").cell(static_cast<long long>(hops));
  t.row().cell("ms / md1 storm").cell(storm_s * 1e3, 3);
  t.row().cell("finish (us)").cell(static_cast<double>(finish) / 1e3, 1);
  t.row().cell("md1 stalls").cell(static_cast<unsigned long long>(stalls));
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  return locus::benchmain::run(
      argc, argv, "micro_network: event dispatch and wormhole injection",
      // bench_compare.py keys counters by section title, so this one stays
      // as recorded in BENCH_network.json.
      {{"event queue dispatch, POD vs closure", run_event_queue},
       {"network injection storm (4x4 mesh)", run_network_storm},
       {"topology routing (8x8 mesh)", run_topology_route},
       {"link cost models (4x4 mesh storm)", run_link_cost_models},
       {"fat tree (16 leaves, arity 2)", run_fat_tree}});
}
