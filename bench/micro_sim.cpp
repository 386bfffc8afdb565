// Microbenchmarks for the DES hot-path overhaul and the SimPool runner:
//   * event heap: the EventQueue's indexed 4-ary heap against a reference
//     std::priority_queue binary heap over the same (time, seq) keys;
//   * inbox: the sorted-ring arrival buffer pattern against the per-node
//     priority_queue it replaced;
//   * payload: intrusive PayloadRef against shared_ptr control blocks;
//   * pool scaling: a batch of independent MP routing sims at 1/2/4/8
//     worker threads (results are submission-ordered, so the batch output
//     is identical at every thread count; only the wall time moves);
//   * pool_profile: isolates the three contended resources a pooled run
//     leans on — the payload allocator (arena vs global new), the pool's
//     dispatch/steal machinery (trivial jobs), and obs shard padding
//     (padded vs unpadded counter slots) — so a future scaling regression
//     is attributable to one of them (run alone: --only=pool_profile).
// Run via scripts/bench_smoke.sh, which records BENCH_sim.json for
// scripts/bench_compare.py to diff against future PRs.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "bench_main.hpp"
#include "harness/experiments.hpp"
#include "harness/sim_pool.hpp"
#include "sim/arena.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "sim/packet.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace locus;

constexpr std::int64_t kBatch = 20000;

/// Best-of-batches timer (minimum is far more stable than the mean, which
/// the 15% regression gate in scripts/bench_compare.py needs).
template <typename Fn>
double best_of(Fn&& fn, double min_seconds) {
  double best = 1e100;
  Stopwatch total;
  do {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.seconds());
  } while (total.seconds() < min_seconds);
  return best;
}

// ---------------------------------------------------------------------------
// Event heap: EventQueue (indexed 4-ary heap) vs a reference binary heap.

/// The pre-overhaul engine, reconstructed as the measured baseline: a
/// std::priority_queue binary heap over (time, seq) driving the same
/// handler-pointer dispatch and bookkeeping the real run loop does. The
/// engine itself no longer uses it.
struct BinHeapEvent {
  SimTime time;
  std::uint64_t seq;
  std::uint64_t a;
  std::uint64_t b;
  std::uint16_t handler;
};
struct BinHeapLater {
  bool operator()(const BinHeapEvent& x, const BinHeapEvent& y) const {
    return x.time != y.time ? x.time > y.time : x.seq > y.seq;
  }
};

Table run_event_heap() {
  struct Sink {
    std::int64_t value = 0;
    static void bump(void* ctx, SimTime, std::uint64_t, std::uint64_t) {
      ++static_cast<Sink*>(ctx)->value;
    }
  };

  std::int64_t quad_sink = 0;
  const double quad_s = best_of(
      [&] {
        EventQueue q;
        Sink sink;
        const EventQueue::HandlerId h = q.add_handler(&Sink::bump, &sink);
        for (std::int64_t i = 0; i < kBatch; ++i) {
          q.schedule(i % 97, h, static_cast<std::uint64_t>(i));
        }
        q.run();
        quad_sink = sink.value;
      },
      0.25);
  LOCUS_ASSERT(quad_sink == kBatch);

  std::int64_t bin_sink = 0;
  const double bin_s = best_of(
      [&] {
        // Same bookkeeping as the real run loop (handler table, peak
        // tracking, now/executed), only the heap differs.
        std::priority_queue<BinHeapEvent, std::vector<BinHeapEvent>,
                            BinHeapLater>
            pq;
        Sink sink;
        struct Entry {
          EventQueue::EventHandler fn;
          void* ctx;
        };
        std::vector<Entry> handlers{{&Sink::bump, &sink}};
        SimTime now = 0;
        std::uint64_t executed = 0;
        std::size_t peak = 0;
        for (std::int64_t i = 0; i < kBatch; ++i) {
          pq.push(BinHeapEvent{i % 97, static_cast<std::uint64_t>(i),
                               static_cast<std::uint64_t>(i), 0, 0});
          peak = std::max(peak, pq.size());
        }
        while (!pq.empty()) {
          const BinHeapEvent ev = pq.top();
          pq.pop();
          now = ev.time;
          ++executed;
          const Entry& h = handlers[ev.handler];
          h.fn(h.ctx, now, ev.a, ev.b);
        }
        LOCUS_ASSERT(executed == static_cast<std::uint64_t>(kBatch));
        LOCUS_ASSERT(peak == static_cast<std::size_t>(kBatch));
        bin_sink = sink.value;
      },
      0.25);
  LOCUS_ASSERT(bin_sink == kBatch);

  benchmain::record("heap4_dispatch_s", quad_s);
  benchmain::record("binary_heap_s", bin_s);
  benchmain::record("events_executed", static_cast<double>(kBatch));

  Table t;
  t.column("heap", Align::kLeft).column("ms / batch").column("Mevents/s");
  t.row().cell("binary (std::priority_queue)").cell(bin_s * 1e3, 3)
      .cell(static_cast<double>(kBatch) / bin_s / 1e6, 2);
  t.row().cell("4-ary indexed (EventQueue)").cell(quad_s * 1e3, 3)
      .cell(static_cast<double>(kBatch) / quad_s / 1e6, 2);
  return t;
}

// ---------------------------------------------------------------------------
// Inbox: sorted-ring arrival buffer vs the per-node priority_queue.

struct MicroArrival {
  SimTime time;
  std::uint64_t seq;
};
struct MicroLater {
  bool operator()(const MicroArrival& x, const MicroArrival& y) const {
    return x.time != y.time ? x.time > y.time : x.seq > y.seq;
  }
};

/// The arrival pattern a node inbox sees: pushes arrive already sorted
/// (deliveries happen in global event order), drained in bursts.
Table run_inbox() {
  constexpr std::int64_t kBurst = 16;

  SimTime ring_sum = 0;
  const double ring_s = best_of(
      [&] {
        // FIFO ring: arrivals are pre-sorted, so push is an append and pop
        // advances the head — the flattened representation the Machine's
        // ArrivalRing uses.
        std::vector<MicroArrival> ring(64);
        std::size_t head = 0, count = 0;
        ring_sum = 0;
        std::uint64_t seq = 0;
        for (std::int64_t b = 0; b < kBatch / kBurst; ++b) {
          for (std::int64_t i = 0; i < kBurst; ++i) {
            if (count == ring.size()) LOCUS_ASSERT(false);
            ring[(head + count) % ring.size()] =
                MicroArrival{b, seq++};
            ++count;
          }
          while (count != 0) {
            ring_sum += ring[head].time;
            head = (head + 1) % ring.size();
            --count;
          }
        }
      },
      0.25);

  SimTime pq_sum = 0;
  const double pq_s = best_of(
      [&] {
        std::priority_queue<MicroArrival, std::vector<MicroArrival>, MicroLater>
            pq;
        pq_sum = 0;
        std::uint64_t seq = 0;
        for (std::int64_t b = 0; b < kBatch / kBurst; ++b) {
          for (std::int64_t i = 0; i < kBurst; ++i) {
            pq.push(MicroArrival{b, seq++});
          }
          while (!pq.empty()) {
            pq_sum += pq.top().time;
            pq.pop();
          }
        }
      },
      0.25);
  LOCUS_ASSERT(ring_sum == pq_sum);

  benchmain::record("inbox_ring_s", ring_s);
  benchmain::record("inbox_pq_s", pq_s);

  Table t;
  t.column("inbox", Align::kLeft).column("ms / batch").column("Marrivals/s");
  t.row().cell("priority_queue (legacy)").cell(pq_s * 1e3, 3)
      .cell(static_cast<double>(kBatch) / pq_s / 1e6, 2);
  t.row().cell("sorted ring (Machine)").cell(ring_s * 1e3, 3)
      .cell(static_cast<double>(kBatch) / ring_s / 1e6, 2);
  return t;
}

// ---------------------------------------------------------------------------
// Payload: intrusive PayloadRef vs shared_ptr control blocks.

struct MicroPayload final : PacketPayload {
  std::int64_t value = 0;
};

Table run_payload() {
  constexpr std::int64_t kAllocs = 20000;

  std::int64_t ref_sum = 0;
  const double ref_s = best_of(
      [&] {
        ref_sum = 0;
        for (std::int64_t i = 0; i < kAllocs; ++i) {
          auto [ref, data] = make_payload<MicroPayload>();
          data->value = i;
          PayloadRef copy = ref;   // send-path handoff: refcount bump
          PayloadRef moved = std::move(copy);  // deliver: free transfer
          ref_sum += static_cast<const MicroPayload*>(moved.get())->value;
        }
      },
      0.25);

  std::int64_t sp_sum = 0;
  const double sp_s = best_of(
      [&] {
        sp_sum = 0;
        for (std::int64_t i = 0; i < kAllocs; ++i) {
          auto p = std::make_shared<MicroPayload>();
          p->value = i;
          std::shared_ptr<const MicroPayload> copy = p;  // atomic bump
          std::shared_ptr<const MicroPayload> moved = std::move(copy);
          sp_sum += moved->value;
        }
      },
      0.25);
  LOCUS_ASSERT(ref_sum == sp_sum);

  benchmain::record("payload_ref_s", ref_s);
  benchmain::record("payload_shared_ptr_s", sp_s);

  Table t;
  t.column("payload handle", Align::kLeft).column("ms / batch")
      .column("Mhandoffs/s");
  t.row().cell("shared_ptr (legacy)").cell(sp_s * 1e3, 3)
      .cell(static_cast<double>(kAllocs) / sp_s / 1e6, 2);
  t.row().cell("PayloadRef (intrusive)").cell(ref_s * 1e3, 3)
      .cell(static_cast<double>(kAllocs) / ref_s / 1e6, 2);
  return t;
}

// ---------------------------------------------------------------------------
// Pool scaling: a batch of independent MP sims at 1/2/4/8 threads.

Table run_pool_scaling(const Circuit& circuit) {
  // Eight distinct schedules — a miniature table sweep. The per-thread
  // numbers on a loaded or single-core host understate the pool; the
  // determinism claim (identical results at every width) is what the
  // equivalence tests enforce, this section just measures wall time.
  const std::vector<UpdateSchedule> schedules = {
      UpdateSchedule::sender(2, 5),   UpdateSchedule::sender(2, 10),
      UpdateSchedule::sender(5, 10),  UpdateSchedule::sender(10, 20),
      UpdateSchedule::receiver(1, 5), UpdateSchedule::receiver(1, 30),
      UpdateSchedule::receiver(2, 10), UpdateSchedule::receiver(5, 2),
  };
  ExperimentConfig config;

  const std::vector<int> widths = {1, 2, 4, 8};
  constexpr int kReps = 5;

  std::int64_t baseline_height = 0;
  const auto batch = [&](int threads) {
    SimPool pool(threads);
    std::int64_t height_sum = 0;
    std::vector<std::int64_t> heights(schedules.size());
    pool.run_indexed(schedules.size(), [&](std::size_t i) {
      const MpRunResult r = run_message_passing(circuit, config.procs,
                                                config.mp(schedules[i]));
      heights[i] = r.circuit_height;
    });
    for (std::int64_t h : heights) height_sum += h;
    return height_sum;
  };

  // Steady state, not cold start: one untimed warm-up batch per width
  // acquires the per-worker arenas and carves their slabs, so the timed
  // reps measure routing, not first-touch page faults. The reps are
  // interleaved across widths (all widths once, then again, ...) so slow
  // drift in host load lands on every width equally instead of
  // systematically penalizing whichever width happens to run last; the
  // median over reps absorbs the occasional descheduling blip.
  for (int threads : widths) {
    const std::int64_t h = batch(threads);
    if (threads == 1) baseline_height = h;
    // Identical work at every width — the determinism invariant.
    LOCUS_ASSERT(h == baseline_height);
  }
  std::vector<std::vector<double>> times(widths.size());
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t w = 0; w < widths.size(); ++w) {
      Stopwatch sw;
      const std::int64_t h = batch(widths[w]);
      times[w].push_back(sw.seconds());
      LOCUS_ASSERT(h == baseline_height);
    }
  }

  Table t;
  t.column("threads").column("batch s").column("speedup");
  double t1 = 0.0;
  for (std::size_t w = 0; w < widths.size(); ++w) {
    std::sort(times[w].begin(), times[w].end());
    const double wall = times[w][times[w].size() / 2];
    if (widths[w] == 1) t1 = wall;
    // No _s suffix: thread-pool wall time depends on host load and core
    // count, so bench_compare.py treats these as informational, not gated.
    benchmain::record("pool_wall_" + std::to_string(widths[w]) + "t", wall);
    if (widths[w] > 1) {
      benchmain::record("pool_speedup_" + std::to_string(widths[w]) + "t",
                        t1 / wall);
    }
    t.row().cell(widths[w]).cell(wall, 3).cell(t1 / wall, 2);
  }
  return t;
}

// ---------------------------------------------------------------------------
// pool_profile: allocator vs dispatch vs obs-shard contention, isolated.

/// RAII toggle for LOCUS_POOL_IGNORE_AFFINITY so the dispatch probe can
/// force real worker threads even on hosts whose affinity mask would clamp
/// the pool to the inline path.
struct ForceThreadsScope {
  std::string saved;
  bool had = false;
  ForceThreadsScope() {
    const char* env = std::getenv("LOCUS_POOL_IGNORE_AFFINITY");
    if (env != nullptr) {
      had = true;
      saved = env;
    }
    ::setenv("LOCUS_POOL_IGNORE_AFFINITY", "1", 1);
  }
  ~ForceThreadsScope() {
    if (had) {
      ::setenv("LOCUS_POOL_IGNORE_AFFINITY", saved.c_str(), 1);
    } else {
      ::unsetenv("LOCUS_POOL_IGNORE_AFFINITY");
    }
  }
};

Table run_pool_profile(const Circuit& circuit) {
  Table t;
  t.column("probe", Align::kLeft).column("ms / batch").column("note",
                                                             Align::kLeft);

  // --- Allocator: per-thread arena vs global operator new on the payload
  // churn pattern (a sliding window of live blocks, FIFO frees). Serial on
  // purpose: the arena's fast path must win, or at worst tie, *before* any
  // contention enters the picture — its scaling benefit is on top of this.
  constexpr std::int64_t kAllocs = 20000;
  constexpr std::size_t kWindow = 256;
  constexpr std::size_t kBytes = 96;  // RegionUpdatePayload territory
  std::vector<void*> window;
  window.reserve(kWindow);
  const double arena_s = best_of(
      [&] {
        for (std::int64_t i = 0; i < kAllocs; ++i) {
          window.push_back(PayloadArena::allocate(kBytes));
          if (window.size() == kWindow) {
            for (void* p : window) PayloadArena::deallocate(p);
            window.clear();
          }
        }
        for (void* p : window) PayloadArena::deallocate(p);
        window.clear();
      },
      0.25);
  const double malloc_s = best_of(
      [&] {
        for (std::int64_t i = 0; i < kAllocs; ++i) {
          window.push_back(::operator new(kBytes));
          if (window.size() == kWindow) {
            for (void* p : window) ::operator delete(p);
            window.clear();
          }
        }
        for (void* p : window) ::operator delete(p);
        window.clear();
      },
      0.25);
  benchmain::record("arena_alloc_s", arena_s);
  benchmain::record("malloc_alloc_s", malloc_s);
  t.row().cell("alloc: global new").cell(malloc_s * 1e3, 3)
      .cell("20k alloc/free, 256 live");
  t.row().cell("alloc: payload arena").cell(arena_s * 1e3, 3)
      .cell("same churn, thread-local");

  // Deterministic attribution counter: payload blocks one fixed serial MP
  // run draws from the arena. Exact-match gated, so a routing change that
  // silently alters allocator pressure shows up here even if timings hide
  // it in noise.
  ExperimentConfig config;
  {
    const ArenaStats before = PayloadArena::current().stats();
    const MpRunResult r = run_message_passing(
        circuit, config.procs, config.mp(UpdateSchedule::sender(2, 5)));
    LOCUS_ASSERT(r.work.wires_routed > 0);
    const ArenaStats after = PayloadArena::current().stats();
    benchmain::record("arena_payload_allocs",
                      static_cast<double>(after.allocs - before.allocs));
  }

  // --- Dispatch: what the pool machinery itself costs. Trivial jobs make
  // queue push/pop, the remaining-counter, and steals the whole bill.
  constexpr std::size_t kJobs = 4096;
  std::vector<std::uint64_t> slots(kJobs, 0);
  const double loop_s = best_of(
      [&] {
        for (std::size_t i = 0; i < kJobs; ++i) slots[i] += i;
      },
      0.1);
  const double pool1_s = best_of(
      [&] {
        SimPool pool(1);
        pool.run_indexed(kJobs, [&](std::size_t i) { slots[i] += i; });
      },
      0.1);
  double forced2 = 0.0;
  {
    ForceThreadsScope force;
    forced2 = best_of(
        [&] {
          SimPool pool(2);
          pool.run_indexed(kJobs, [&](std::size_t i) { slots[i] += i; });
        },
        0.1);
  }
  benchmain::record("dispatch_loop_s", loop_s);
  benchmain::record("dispatch_pool1_s", pool1_s);
  // Host-dependent (real threads on whatever cpus exist): informational.
  benchmain::record("dispatch_pool2_forced", forced2);
  t.row().cell("dispatch: plain loop").cell(loop_s * 1e3, 3)
      .cell("4096 trivial jobs");
  t.row().cell("dispatch: pool width 1").cell(pool1_s * 1e3, 3)
      .cell("inline path");
  t.row().cell("dispatch: pool width 2").cell(forced2 * 1e3, 3)
      .cell("forced threads: queue+steal");

  // --- Obs shards: padded (the real CounterRegistry layout) vs unpadded
  // slots under two writer threads. On a single-cpu host the threads
  // timeshare and the two probes tie; with real parallelism the unpadded
  // variant pays coherence misses on every bump. Informational either way.
  constexpr std::uint64_t kBumps = 200000;
  struct PaddedSlot {
    alignas(64) std::uint64_t value = 0;
  };
  struct UnpaddedSlot {
    std::uint64_t value = 0;
  };
  const auto hammer = [&](auto* slots2) {
    std::thread other([&] {
      for (std::uint64_t i = 0; i < kBumps; ++i) slots2[1].value += 1;
    });
    for (std::uint64_t i = 0; i < kBumps; ++i) slots2[0].value += 1;
    other.join();
  };
  PaddedSlot padded[2];
  UnpaddedSlot unpadded[2];
  const double padded_wall = best_of([&] { hammer(padded); }, 0.25);
  const double unpadded_wall = best_of([&] { hammer(unpadded); }, 0.25);
  LOCUS_ASSERT(padded[0].value > 0 && unpadded[1].value > 0);
  benchmain::record("shard_padded_wall", padded_wall);
  benchmain::record("shard_unpadded_wall", unpadded_wall);
  t.row().cell("obs shards: unpadded").cell(unpadded_wall * 1e3, 3)
      .cell("2 writers, shared line");
  t.row().cell("obs shards: padded").cell(padded_wall * 1e3, 3)
      .cell("2 writers, 64B apart");
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  Circuit bnre = make_bnre_like();
  return benchmain::run(
      argc, argv, "DES hot path + SimPool microbenchmarks",
      {{"event heap (binary vs 4-ary)", [] { return run_event_heap(); }},
       {"node inbox (priority_queue vs sorted ring)",
        [] { return run_inbox(); }},
       {"payload handle (shared_ptr vs PayloadRef)",
        [] { return run_payload(); }},
       {"pool scaling (8 independent MP sims)",
        [&] { return run_pool_scaling(bnre); }},
       {"pool_profile (allocator / dispatch / obs shards)",
        [&] { return run_pool_profile(bnre); }}});
}
