// Job runner and determinism tests: every job runs exactly once with
// index-ordered collection, errors propagate as the lowest-index failure,
// the width resolves set_sim_threads() > LOCUS_THREADS > serial, a run
// really holds its full width of jobs at once, and — the property the
// whole design rests on — fanning real simulations out yields
// bit-identical results and bit-identical merged observability output at
// every width. No test starts more than 4 workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/generator.hpp"
#include "harness/experiments.hpp"
#include "harness/sim_pool.hpp"
#include "msg/driver.hpp"
#include "obs/counters.hpp"
#include "sim/event_queue.hpp"
#include "test_util.hpp"

namespace locus {
namespace {

TEST(SimPool, RunsEveryJobExactlyOnce) {
  constexpr std::size_t kJobs = 257;  // deliberately not a multiple of width
  std::vector<int> hits(kJobs, 0);
  std::atomic<int> total{0};
  const test::ScopedSimThreads width(4);
  EXPECT_EQ(sim_threads(), 4);
  run_indexed(kJobs, [&](std::size_t i) {
    ++hits[i];  // each slot has exactly one writer
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), static_cast<int>(kJobs));
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(hits[i], 1) << "job " << i;
  }
}

TEST(SimPool, MapCollectsInSubmissionOrder) {
  // No default constructor: map_indexed must not need one.
  struct Square {
    explicit Square(std::size_t i) : value(static_cast<std::int64_t>(i * i)) {}
    std::int64_t value;
  };
  const test::ScopedSimThreads width(4);
  const std::vector<Square> out =
      map_indexed(100, [](std::size_t i) { return Square(i); });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value, static_cast<std::int64_t>(i * i));
  }
}

TEST(SimPool, ZeroAndSingleJobRunInline) {
  const test::ScopedSimThreads width(4);
  run_indexed(0, [](std::size_t) { FAIL() << "no jobs to run"; });
  std::vector<std::size_t> seen;
  run_indexed(1, [&](std::size_t i) { seen.push_back(i); });
  ASSERT_EQ(seen.size(), 1u);  // push_back un-synchronized: inline-only is load-bearing
  EXPECT_EQ(seen[0], 0u);
}

TEST(SimPool, FirstErrorByJobIndexWins) {
  // Three jobs throw; whichever finishes first, the runner must rethrow the
  // lowest index so failures are reproducible across widths.
  for (int threads : {1, 4}) {
    const test::ScopedSimThreads width(threads);
    try {
      run_indexed(16, [](std::size_t i) {
        if (i == 9 || i == 3 || i == 5) {
          throw std::runtime_error(std::to_string(i));
        }
      });
      FAIL() << "expected the runner to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << "threads=" << threads;
    }
  }
}

TEST(SimPool, ThreadResolutionPrecedence) {
  const char* saved = std::getenv("LOCUS_THREADS");
  const std::optional<std::string> env =
      saved != nullptr ? std::optional<std::string>(saved) : std::nullopt;

  ::setenv("LOCUS_THREADS", "2", 1);
  set_sim_threads(3);
  EXPECT_EQ(sim_threads(), 3);   // set_sim_threads beats the environment
  set_sim_threads(0);
  ::setenv("LOCUS_THREADS", "5", 1);
  EXPECT_EQ(sim_threads(), 5);   // env applies once the setting is cleared
  ::setenv("LOCUS_THREADS", "not-a-number", 1);
  EXPECT_EQ(sim_threads(), 1);   // garbage degrades to serial
  ::unsetenv("LOCUS_THREADS");
  EXPECT_EQ(sim_threads(), 1);   // nothing configured: serial

  if (env.has_value()) ::setenv("LOCUS_THREADS", env->c_str(), 1);
}

TEST(SimPool, AvailableCpusIsAtLeastOne) {
  // Hosts without a readable affinity mask still answer, so the width
  // clamp never reaches zero workers.
  EXPECT_GE(available_cpus(), 1);
}

TEST(SimPool, FullWidthOfJobsRunsAtOnce) {
  // W = min(4, cpus) jobs each wait at a shared rendezvous until all W have
  // started. That only completes if W workers hold a job at the same time;
  // a narrower run leaves the first job waiting until the bounded wait
  // gives up, and the test fails instead of hanging.
  const std::size_t jobs = static_cast<std::size_t>(std::min(4, available_cpus()));
  const test::ScopedSimThreads width(4);
  std::mutex mutex;
  std::condition_variable all_started;
  std::size_t started = 0;
  bool gave_up = false;
  std::vector<int> met(jobs, 0);
  run_indexed(jobs, [&](std::size_t i) {
    std::unique_lock<std::mutex> lock(mutex);
    ++started;
    all_started.notify_all();
    met[i] = all_started.wait_for(lock, std::chrono::seconds(60), [&] {
      return started == jobs || gave_up;
    }) && !gave_up;
    if (met[i] == 0) {
      gave_up = true;
      all_started.notify_all();
    }
  });
  EXPECT_EQ(started, jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    EXPECT_EQ(met[i], 1) << "job " << i << " of " << jobs
                         << " ran without the others";
  }
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
  const test::ScopedSimThreads width(threads);
  return map_indexed(schedules.size(), [&](std::size_t i) {
    return run_message_passing(circuit, config.procs, config.mp(schedules[i]));
  });
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
    const test::ScopedSimThreads width(threads);
    run_indexed(kJobs, [&](std::size_t i) {
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

}  // namespace
}  // namespace locus
