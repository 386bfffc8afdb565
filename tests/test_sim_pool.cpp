// SimPool runner and determinism tests: every job runs exactly once with
// submission-ordered collection, errors propagate as the lowest-index
// failure, thread-count resolution follows explicit > set_sim_threads() >
// LOCUS_THREADS > serial, and — the property the whole design rests on —
// fanning real simulations out over the pool yields bit-identical results
// and bit-identical merged observability output at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/generator.hpp"
#include "harness/experiments.hpp"
#include "harness/sim_pool.hpp"
#include "msg/driver.hpp"
#include "obs/counters.hpp"
#include "sim/event_queue.hpp"
#include "support/stopwatch.hpp"

namespace locus {
namespace {

TEST(SimPool, RunsEveryJobExactlyOnce) {
  constexpr std::size_t kJobs = 257;  // deliberately not a multiple of width
  std::vector<int> hits(kJobs, 0);
  std::atomic<int> total{0};
  SimPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  pool.run_indexed(kJobs, [&](std::size_t i) {
    ++hits[i];  // each slot has exactly one writer
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), static_cast<int>(kJobs));
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(hits[i], 1) << "job " << i;
  }
}

TEST(SimPool, MapCollectsInSubmissionOrder) {
  const std::vector<std::int64_t> out =
      SimPool(4).map(100, [](std::size_t i) {
        return static_cast<std::int64_t>(i) * static_cast<std::int64_t>(i);
      });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::int64_t>(i * i));
  }
}

TEST(SimPool, ZeroAndSingleJobRunInline) {
  SimPool pool(8);
  pool.run_indexed(0, [](std::size_t) { FAIL() << "no jobs to run"; });
  std::vector<std::size_t> seen;
  pool.run_indexed(1, [&](std::size_t i) { seen.push_back(i); });
  ASSERT_EQ(seen.size(), 1u);  // push_back un-synchronized: inline-only is load-bearing
  EXPECT_EQ(seen[0], 0u);
}

TEST(SimPool, FirstErrorByJobIndexWins) {
  // Three jobs throw; whichever finishes first, the pool must rethrow the
  // lowest submission index so failures are reproducible across widths.
  for (int threads : {1, 4}) {
    try {
      SimPool(threads).run_indexed(16, [](std::size_t i) {
        if (i == 9 || i == 3 || i == 5) {
          throw std::runtime_error(std::to_string(i));
        }
      });
      FAIL() << "expected the pool to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << "threads=" << threads;
    }
  }
}

TEST(SimPool, ThreadResolutionPrecedence) {
  set_sim_threads(3);
  EXPECT_EQ(sim_threads(), 3);
  EXPECT_EQ(SimPool().threads(), 3);
  EXPECT_EQ(SimPool(2).threads(), 2);  // explicit beats the session default

  set_sim_threads(0);
  ::setenv("LOCUS_THREADS", "5", 1);
  EXPECT_EQ(sim_threads(), 5);   // env applies once the default is cleared
  ::setenv("LOCUS_THREADS", "not-a-number", 1);
  EXPECT_EQ(sim_threads(), 1);   // garbage degrades to serial
  ::unsetenv("LOCUS_THREADS");
  EXPECT_EQ(sim_threads(), 1);   // nothing configured: serial
}

TEST(SimPool, AvailableCpusIsAtLeastOne) {
  // Hosts without a readable affinity mask still answer, so the width
  // clamp never reaches zero workers.
  EXPECT_GE(available_cpus(), 1);
}

TEST(SimPool, RunAllExecutesNamedJobs) {
  std::vector<int> done(3, 0);
  std::vector<SimJob> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(SimJob{"job" + std::to_string(i), [&done, i] { done[static_cast<std::size_t>(i)] = i + 1; }});
  }
  SimPool(2).run_all(std::move(jobs));
  EXPECT_EQ(done, (std::vector<int>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// The 4-ary event heap's FIFO tie-break: same-time events run in schedule
// order, on every run.

std::vector<std::uint64_t> run_tie_break_schedule() {
  EventQueue q;
  std::vector<std::uint64_t> order;
  struct Ctx {
    std::vector<std::uint64_t>* order;
    static void on(void* ctx, SimTime, std::uint64_t a, std::uint64_t) {
      static_cast<Ctx*>(ctx)->order->push_back(a);
    }
  } ctx{&order};
  const EventQueue::HandlerId h = q.add_handler(&Ctx::on, &ctx);
  // 100 events at time 7 tagged 100..199, then 10 latecomers at time 3
  // tagged 0..9: the earlier time runs first, and within each time the
  // schedule order (sequence number) is the tie-break.
  for (std::uint64_t i = 0; i < 100; ++i) q.schedule(7, h, 100 + i);
  for (std::uint64_t i = 0; i < 10; ++i) q.schedule(3, h, i);
  q.run();
  return order;
}

TEST(EventQueueFifo, SameTimeEventsPopInScheduleOrder) {
  const std::vector<std::uint64_t> order = run_tie_break_schedule();
  ASSERT_EQ(order.size(), 110u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(order[10 + i], 100 + i);
}

TEST(EventQueueFifo, RepeatedRunsProduceIdenticalOrder) {
  const std::vector<std::uint64_t> first = run_tie_break_schedule();
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(run_tie_break_schedule(), first) << "rep " << rep;
  }
}

// ---------------------------------------------------------------------------
// Pool-vs-serial determinism on real simulations: the acceptance criterion
// for every fan-out conversion in harness/experiments.cpp and check/oracle.

/// The schedules a small table sweep would run, one sim per job.
std::vector<UpdateSchedule> sweep_schedules() {
  return {
      UpdateSchedule::sender(2, 5),    UpdateSchedule::sender(10, 5),
      UpdateSchedule::receiver(1, 5),  UpdateSchedule::receiver(5, 2),
      UpdateSchedule::sender(5, 10),   UpdateSchedule::receiver(2, 10),
  };
}

std::vector<MpRunResult> run_sweep(const Circuit& circuit, int threads) {
  const std::vector<UpdateSchedule> schedules = sweep_schedules();
  const ExperimentConfig config;
  std::vector<MpRunResult> results(schedules.size());
  SimPool(threads).run_indexed(schedules.size(), [&](std::size_t i) {
    results[i] =
        run_message_passing(circuit, config.procs, config.mp(schedules[i]));
  });
  return results;
}

TEST(PoolDeterminism, MpSweepIsBitIdenticalAtAnyWidth) {
  const Circuit circuit = make_bnre_like();
  const std::vector<MpRunResult> serial = run_sweep(circuit, 1);
  for (int threads : {2, 4}) {
    const std::vector<MpRunResult> pooled = run_sweep(circuit, threads);
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const MpRunResult& a = serial[i];
      const MpRunResult& b = pooled[i];
      EXPECT_EQ(a.circuit_height, b.circuit_height) << "job " << i;
      EXPECT_EQ(a.occupancy_factor, b.occupancy_factor) << "job " << i;
      EXPECT_EQ(a.bytes_transferred, b.bytes_transferred) << "job " << i;
      EXPECT_EQ(a.completion_ns, b.completion_ns) << "job " << i;
      EXPECT_EQ(a.updates_suppressed, b.updates_suppressed) << "job " << i;
      EXPECT_EQ(a.requests_sent, b.requests_sent) << "job " << i;
      // Doubles compare exactly: same instruction stream, same bits.
      EXPECT_EQ(a.view_staleness, b.view_staleness) << "job " << i;
      EXPECT_EQ(a.own_region_staleness, b.own_region_staleness) << "job " << i;
      ASSERT_EQ(a.routes.size(), b.routes.size()) << "job " << i;
    }
  }
}

TEST(PoolDeterminism, MergedObsCsvIsBitIdenticalAtAnyWidth) {
  // Each job owns a private registry (the no-shared-mutable-state rule);
  // the caller absorbs them in submission order after the join, so the
  // merged CSV must not depend on which worker ran which job when.
  constexpr std::size_t kJobs = 12;
  const auto run_at = [](int threads) {
    std::vector<std::unique_ptr<obs::CounterRegistry>> regs(kJobs);
    SimPool(threads).run_indexed(kJobs, [&](std::size_t i) {
      auto reg = std::make_unique<obs::CounterRegistry>();
      const obs::MetricId events = reg->counter("job.events");
      const obs::MetricId shared = reg->counter("sweep.total");
      const obs::MetricId depth = reg->histogram("job.depth");
      reg->add(events, i + 1);
      reg->add(shared, 10 * i);
      for (std::uint64_t s = 0; s <= i; ++s) reg->observe(depth, s * s);
      regs[i] = std::move(reg);
    });
    obs::CounterRegistry merged;
    for (const auto& reg : regs) merged.merge_from(*reg);
    return merged.metrics_csv();
  };
  const std::string serial_csv = run_at(1);
  // merge_from sums: 1 + 2 + ... + 12 events, 12 * 13 / 2 depth samples.
  EXPECT_NE(serial_csv.find("counter,job.events,78\n"), std::string::npos);
  EXPECT_NE(serial_csv.find("histogram,job.depth.count,78\n"), std::string::npos);
  EXPECT_EQ(run_at(2), serial_csv);
  EXPECT_EQ(run_at(4), serial_csv);
}

// ---------------------------------------------------------------------------
// Scaling smoke: the pool must actually go faster where the hardware can
// serve it. Release-only (Debug wall times measure the allocator's
// bookkeeping, not the pool) and guarded on the affinity mask — on 1-cpu
// CI runners the clamp makes pooled == serial and a speedup assertion
// would be asserting on physics. DISABLED_: other load on a shared host
// can sink the ratio, so ctest leaves it out and the nightly scale lane
// runs it with --gtest_also_run_disabled_tests.

TEST(PoolScaling, DISABLED_FourWorkersBeatSerialOnMultiCoreHosts) {
#ifndef NDEBUG
  GTEST_SKIP() << "Release-only: Debug timings do not reflect the pool";
#endif
  const int cpus = available_cpus();
  if (cpus < 4) {
    GTEST_SKIP() << "needs >= 4 available cpus, have " << cpus;
  }

  // At least 8 independent MP sims (2 per worker at width 4).
  const Circuit circuit = make_bnre_like();
  const std::vector<UpdateSchedule> schedules = {
      UpdateSchedule::sender(2, 5),    UpdateSchedule::sender(2, 10),
      UpdateSchedule::sender(5, 10),   UpdateSchedule::sender(10, 20),
      UpdateSchedule::receiver(1, 5),  UpdateSchedule::receiver(1, 30),
      UpdateSchedule::receiver(2, 10), UpdateSchedule::receiver(5, 2),
  };
  const ExperimentConfig config;
  const auto batch = [&](int threads) {
    SimPool pool(threads);
    std::vector<std::int64_t> heights(schedules.size());
    pool.run_indexed(schedules.size(), [&](std::size_t i) {
      heights[i] = run_message_passing(circuit, config.procs,
                                       config.mp(schedules[i]))
                       .circuit_height;
    });
    return heights;
  };
  // One batch lasts only ~30-90 ms, short enough for a scheduler hiccup to
  // swing the ratio, so each sample repeats the batch for >= 0.5 s and
  // reports seconds per batch. Steady state: warm caches once per width,
  // then median of 3 samples.
  const auto sample = [&](int threads) {
    Stopwatch sw;
    int reps = 0;
    double elapsed = 0.0;
    do {
      batch(threads);
      ++reps;
      elapsed = sw.seconds();
    } while (elapsed < 0.5);
    return elapsed / reps;
  };
  const auto median3 = [&](int threads) {
    batch(threads);  // warm-up, not timed
    std::vector<double> times(3);
    for (double& t : times) t = sample(threads);
    std::sort(times.begin(), times.end());
    return times[1];
  };
  EXPECT_EQ(batch(4), batch(1)) << "width changed the results";
  const double t1 = median3(1);
  const double t4 = median3(4);
  EXPECT_GE(t1 / t4, 1.5) << "4-worker batch speedup regressed: t1=" << t1
                          << "s t4=" << t4 << "s";
}

}  // namespace
}  // namespace locus
