// Microbenchmarks for the DES hot path and the SimPool runner:
//   * event heap: dispatch through the EventQueue's indexed 4-ary heap;
//   * inbox: the sorted-ring arrival buffer pattern the Machine uses;
//   * payload: intrusive PayloadRef handoffs;
//   * pool_profile: isolates the two contended resources a pooled run
//     leans on — the payload allocator (arena vs global new) and the pool's
//     dispatch/steal machinery (trivial jobs) — so a future scaling
//     regression is attributable to one of them (run alone:
//     --only=pool_profile).
// Run via scripts/bench_smoke.sh, which records BENCH_sim.json for
// scripts/bench_compare.py to diff against future PRs.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
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
// Event heap: dispatch through the EventQueue (indexed 4-ary heap).

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

  benchmain::record("heap4_dispatch_s", quad_s);
  benchmain::record("events_executed", static_cast<double>(kBatch));

  Table t;
  t.column("heap", Align::kLeft).column("ms / batch").column("Mevents/s");
  t.row().cell("4-ary indexed (EventQueue)").cell(quad_s * 1e3, 3)
      .cell(static_cast<double>(kBatch) / quad_s / 1e6, 2);
  return t;
}

// ---------------------------------------------------------------------------
// Inbox: the sorted-ring arrival buffer.

struct MicroArrival {
  SimTime time;
  std::uint64_t seq;
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
  // Burst b carries kBurst arrivals stamped b.
  constexpr std::int64_t kBursts = kBatch / kBurst;
  LOCUS_ASSERT(ring_sum == kBurst * kBursts * (kBursts - 1) / 2);

  benchmain::record("inbox_ring_s", ring_s);

  Table t;
  t.column("inbox", Align::kLeft).column("ms / batch").column("Marrivals/s");
  t.row().cell("sorted ring (Machine)").cell(ring_s * 1e3, 3)
      .cell(static_cast<double>(kBatch) / ring_s / 1e6, 2);
  return t;
}

// ---------------------------------------------------------------------------
// Payload: intrusive PayloadRef handoffs.

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
  LOCUS_ASSERT(ref_sum == kAllocs * (kAllocs - 1) / 2);

  benchmain::record("payload_ref_s", ref_s);

  Table t;
  t.column("payload handle", Align::kLeft).column("ms / batch")
      .column("Mhandoffs/s");
  t.row().cell("PayloadRef (intrusive)").cell(ref_s * 1e3, 3)
      .cell(static_cast<double>(kAllocs) / ref_s / 1e6, 2);
  return t;
}

// ---------------------------------------------------------------------------
// pool_profile: allocator vs dispatch contention, isolated.

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

  return t;
}

}  // namespace

int main(int argc, char** argv) {
  Circuit bnre = make_bnre_like();
  return benchmain::run(
      argc, argv, "DES hot path + SimPool microbenchmarks",
      {{"event heap (4-ary)", [] { return run_event_heap(); }},
       {"node inbox (sorted ring)", [] { return run_inbox(); }},
       {"payload handle (PayloadRef)", [] { return run_payload(); }},
       {"pool_profile (allocator / dispatch)",
        [&] { return run_pool_profile(bnre); }}});
}
