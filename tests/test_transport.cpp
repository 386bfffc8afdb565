// Reliable transport (msg/transport.hpp): deterministic state-machine unit
// tests, single-fault integration scenarios (drop each packet kind exactly
// once via the max-capped fault plan), the seed x drop-rate convergence
// property — every faulted run's routes bit-identical to the fault-free
// run — and the recovery-sweep pool-determinism check. Carries the
// `transport` ctest label.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "harness/experiments.hpp"
#include "harness/sim_pool.hpp"
#include "msg/driver.hpp"
#include "msg/packets.hpp"
#include "msg/transport.hpp"
#include "obs/obs.hpp"
#include "sim/fault.hpp"
#include "test_util.hpp"

namespace locus {
namespace {

// --- TransportChannel: pure state machine with injected times ------------

// The unit tests below run against the fixed transport constants; the
// backoff expectations assume doubling and at least three attempts.
static_assert(kTransportBackoff == 2.0 && kTransportMaxBackoffExp >= 2 &&
              kTransportMaxAttempts >= 3);

TEST(TransportChannel, SeqsMonotonicAndCumulativeAckRetires) {
  TransportChannel ch;
  EXPECT_EQ(ch.begin_send(kMsgSendRmtData, 100, 10, 1'010), 1u);
  EXPECT_EQ(ch.begin_send(kMsgSendRmtData, 100, 20, 1'020), 2u);
  EXPECT_EQ(ch.begin_send(kMsgSendLocData, 200, 30, 1'030), 3u);
  EXPECT_EQ(ch.in_flight(), 3);
  EXPECT_EQ(ch.on_ack(2), 2u);  // cumulative: retires 1 and 2
  EXPECT_EQ(ch.in_flight(), 1);
  EXPECT_EQ(ch.on_ack(2), 0u);  // repeated ack is idempotent
  EXPECT_EQ(ch.on_ack(3), 1u);
  EXPECT_EQ(ch.in_flight(), 0);
}

TEST(TransportChannel, TimeoutRetransmitsWithExponentialBackoff) {
  TransportChannel ch;
  const std::uint32_t seq =
      ch.begin_send(kMsgSendRmtData, 64, 100, 100 + kTransportRtoNs);

  auto v1 = ch.on_timeout(seq, 1, 1'100);
  ASSERT_TRUE(v1.retransmit);
  EXPECT_EQ(v1.entry.attempts, 2);
  EXPECT_EQ(v1.entry.next_timeout, 1'100 + 2 * kTransportRtoNs);

  // The superseded attempt-1 timer must be a no-op if it somehow refires.
  EXPECT_FALSE(ch.on_timeout(seq, 1, 1'200).retransmit);

  auto v2 = ch.on_timeout(seq, 2, 3'100);
  ASSERT_TRUE(v2.retransmit);
  EXPECT_EQ(v2.entry.attempts, 3);
  EXPECT_EQ(v2.entry.next_timeout, 3'100 + 4 * kTransportRtoNs);
}

TEST(TransportChannel, StaleTimerAfterAckIsNoop) {
  TransportChannel ch;
  const std::uint32_t seq = ch.begin_send(kMsgSendRmtData, 64, 100, 1'100);
  EXPECT_EQ(ch.on_ack(seq), 1u);
  const auto verdict = ch.on_timeout(seq, 1, 1'100);
  EXPECT_FALSE(verdict.retransmit);
  EXPECT_FALSE(verdict.gave_up);
}

TEST(TransportChannel, GivesUpAfterMaxAttempts) {
  TransportChannel ch;
  const std::uint32_t seq = ch.begin_send(kMsgSendRmtData, 64, 100, 1'100);
  SimTime now = 1'100;
  for (std::int32_t attempt = 1; attempt < kTransportMaxAttempts; ++attempt) {
    EXPECT_TRUE(ch.on_timeout(seq, attempt, now).retransmit) << "attempt " << attempt;
    now += 2'000;
  }
  const auto last = ch.on_timeout(seq, kTransportMaxAttempts, now);
  EXPECT_FALSE(last.retransmit);
  EXPECT_TRUE(last.gave_up);
  EXPECT_EQ(ch.in_flight(), 0);
  // Anything after the give-up is stale.
  EXPECT_FALSE(ch.on_timeout(seq, kTransportMaxAttempts + 1, now + 2'000).gave_up);
}

TEST(TransportChannel, WindowTracksInFlight) {
  TransportChannel ch;
  for (std::int32_t i = 0; i < kTransportWindow; ++i) {
    EXPECT_FALSE(ch.window_full());
    ch.begin_send(kMsgSendRmtData, 64, 100 + i, 1'100 + i);
  }
  EXPECT_TRUE(ch.window_full());
  ch.on_ack(1);
  EXPECT_FALSE(ch.window_full());
}

TEST(TransportChannel, DedupAndReleaseAcrossWindowBoundary) {
  TransportChannel ch;
  bool ooo = false;
  std::uint32_t released = 0;
  EXPECT_EQ(ch.on_arrival(1, &ooo, &released), TransportChannel::Arrival::kNew);
  EXPECT_FALSE(ooo);
  EXPECT_EQ(released, 1u);
  EXPECT_EQ(ch.rcv_cum(), 1u);

  // Seqs 3..40 arrive while 2 is missing: a reorder spanning well past one
  // 32-seq window. All buffer ahead of the gap; the ack value stays at 1.
  for (std::uint32_t s = 3; s <= 40; ++s) {
    EXPECT_EQ(ch.on_arrival(s, &ooo, &released),
              TransportChannel::Arrival::kNew);
    EXPECT_TRUE(ooo);
    EXPECT_EQ(released, 0u);
  }
  EXPECT_EQ(ch.rcv_cum(), 1u);
  EXPECT_EQ(ch.buffered_ahead(), 38);

  // Repeats are deduplicated whether already delivered or buffered ahead.
  EXPECT_EQ(ch.on_arrival(1), TransportChannel::Arrival::kDuplicate);
  EXPECT_EQ(ch.on_arrival(17), TransportChannel::Arrival::kDuplicate);

  // The late seq 2 releases the whole buffered run in one step.
  EXPECT_EQ(ch.on_arrival(2, &ooo, &released),
            TransportChannel::Arrival::kNew);
  EXPECT_EQ(released, 39u);
  EXPECT_EQ(ch.rcv_cum(), 40u);
  EXPECT_EQ(ch.buffered_ahead(), 0);
  EXPECT_EQ(ch.delivered_unique(), 40u);
  EXPECT_EQ(ch.on_arrival(2), TransportChannel::Arrival::kDuplicate);
}

// --- integration helpers -------------------------------------------------

MpConfig transport_config(const UpdateSchedule& schedule,
                          const FaultPlan* plan) {
  MpConfig mp;
  mp.schedule = schedule;
  mp.iterations = 2;
  mp.transport.enabled = true;
  mp.faults = plan;
  return mp;
}

/// Asserts the convergence guarantee: `run` matches the fault-free `base`
/// in everything the router produced, and the transport ledger balances.
void expect_identical(const MpRunResult& run, const MpRunResult& base,
                      const char* what) {
  EXPECT_TRUE(run.routes == base.routes) << what;
  EXPECT_EQ(run.completion_ns, base.completion_ns) << what;
  EXPECT_EQ(run.circuit_height, base.circuit_height) << what;
  EXPECT_EQ(run.view_staleness, base.view_staleness) << what;
  EXPECT_EQ(run.own_region_staleness, base.own_region_staleness) << what;
  EXPECT_TRUE(run.transport.books_balance()) << what;
}

// --- single-fault scenarios: drop each packet kind exactly once ----------

struct KindCase {
  const char* name;
  std::int32_t type;
  UpdateSchedule schedule;
  WireAssignmentMode mode = WireAssignmentMode::kStatic;
};

std::vector<KindCase> kind_cases() {
  std::vector<KindCase> cases;
  cases.push_back(
      {"SendLocData", kMsgSendLocData, UpdateSchedule::sender(2, 2)});
  cases.push_back(
      {"SendRmtData", kMsgSendRmtData, UpdateSchedule::sender(2, 2)});
  cases.push_back(
      {"ReqRmtData", kMsgReqRmtData, UpdateSchedule::receiver(2, 2)});
  cases.push_back(
      {"RspRmtData", kMsgRspRmtData, UpdateSchedule::receiver(2, 2)});
  cases.push_back(
      {"ReqLocData", kMsgReqLocData, UpdateSchedule::receiver(2, 2)});
  // Dropping a blocking-mode response deadlocks the requester without the
  // transport; with it, the nominal-plane delivery keeps the run on time.
  cases.push_back({"RspRmtData-blocking", kMsgRspRmtData,
                   UpdateSchedule::receiver(2, 2, /*blocking=*/true)});
  cases.push_back({"WireRequest", kMsgWireRequest, UpdateSchedule{},
                   WireAssignmentMode::kDynamicPolled});
  cases.push_back({"WireGrant", kMsgWireGrant, UpdateSchedule{},
                   WireAssignmentMode::kDynamicPolled});
  return cases;
}

TEST(TransportIntegration, DropEachPacketKindExactlyOnce) {
  const Circuit circuit = test::make_seeded_circuit(7);
  for (const KindCase& c : kind_cases()) {
    FaultPlan plan;
    plan.drop_rate = 1.0;
    plan.packet_types = {c.type};
    plan.max_packet_faults = 1;  // exactly the first packet of this kind

    MpConfig base_cfg = transport_config(c.schedule, nullptr);
    base_cfg.assignment_mode = c.mode;
    MpConfig drop_cfg = transport_config(c.schedule, &plan);
    drop_cfg.assignment_mode = c.mode;

    const MpRunResult base = run_message_passing(circuit, 4, base_cfg);
    const MpRunResult run = run_message_passing(circuit, 4, drop_cfg);

    ASSERT_EQ(run.faults.dropped, 1u) << c.name;
    EXPECT_EQ(run.transport.wire_losses, 1u) << c.name;
    // The lost copy must have been repaired by at least one retransmit (the
    // capped plan delivers the retry cleanly).
    EXPECT_GE(run.transport.retransmits, 1u) << c.name;
    EXPECT_EQ(run.transport.undelivered, 0u) << c.name;
    expect_identical(run, base, c.name);
  }
}

TEST(TransportIntegration, DropFirstStandaloneAckConverges) {
  const Circuit circuit = test::make_seeded_circuit(7);
  FaultPlan plan;
  plan.drop_rate = 1.0;
  plan.packet_types = {kMsgAck};
  plan.max_packet_faults = 1;
  const MpRunResult base = run_message_passing(
      circuit, 4, transport_config(UpdateSchedule::sender(2, 2), nullptr));
  const MpRunResult run = run_message_passing(
      circuit, 4, transport_config(UpdateSchedule::sender(2, 2), &plan));
  ASSERT_EQ(run.faults.dropped, 1u);
  EXPECT_EQ(run.transport.ack_wire_losses, 1u);
  // A lost ack leaves data unacked; recovery (retransmit -> dup -> re-ack)
  // must still drain every channel.
  EXPECT_EQ(run.transport.unacked_at_end, 0);
  expect_identical(run, base, "ack drop");
}

TEST(TransportIntegration, DuplicatesAreDeduplicatedAndSurfaced) {
  const Circuit circuit = test::make_seeded_circuit(7);
  FaultPlan plan;
  plan.dup_rate = 1.0;
  plan.packet_types = {kMsgSendRmtData};
  plan.max_packet_faults = 3;
  const MpRunResult base = run_message_passing(
      circuit, 4, transport_config(UpdateSchedule::sender(2, 2), nullptr));
  const MpRunResult run = run_message_passing(
      circuit, 4, transport_config(UpdateSchedule::sender(2, 2), &plan));
  ASSERT_EQ(run.faults.duplicated, 3u);
  // The previously invisible dup path is now a first-class network stat.
  EXPECT_EQ(run.network.duplicate_deliveries, 3u);
  EXPECT_EQ(run.transport.dup_wire_copies, 3u);
  EXPECT_GE(run.transport.dup_dropped, 3u);  // every extra copy discarded
  expect_identical(run, base, "dup");
}

TEST(TransportIntegration, DelayAndReorderConverge) {
  const Circuit circuit = test::make_seeded_circuit(7);
  const MpRunResult base = run_message_passing(
      circuit, 4, transport_config(UpdateSchedule::sender(2, 2), nullptr));
  {
    FaultPlan plan;
    plan.delay_rate = 1.0;
    plan.delay_ns = 500'000;
    plan.max_packet_faults = 5;
    const MpRunResult run = run_message_passing(
        circuit, 4, transport_config(UpdateSchedule::sender(2, 2), &plan));
    ASSERT_EQ(run.faults.delayed, 5u);
    expect_identical(run, base, "delay");
  }
  {
    FaultPlan plan;
    plan.reorder_rate = 1.0;
    plan.reorder_hold_ns = 400'000;
    plan.max_packet_faults = 5;
    const MpRunResult run = run_message_passing(
        circuit, 4, transport_config(UpdateSchedule::sender(2, 2), &plan));
    ASSERT_EQ(run.faults.reordered, 5u);
    expect_identical(run, base, "reorder");
  }
}

/// Satellite: the dup path is visible in NetworkStats (and obs) even with
/// the transport off — it used to be counted only inside the injector.
TEST(TransportIntegration, DupDeliveriesVisibleWithoutTransport) {
  const Circuit circuit = test::make_seeded_circuit(7);
  FaultPlan plan;
  plan.dup_rate = 0.25;
  plan.packet_types = {kMsgSendRmtData};
  MpConfig mp;
  mp.schedule = UpdateSchedule::sender(2, 2);
  mp.faults = &plan;
  obs::Obs obs;
  mp.obs = &obs;
  const MpRunResult run = run_message_passing(circuit, 4, mp);
  ASSERT_GT(run.faults.duplicated, 0u);
  EXPECT_EQ(run.network.duplicate_deliveries, run.faults.duplicated);
  EXPECT_EQ(obs.counters().total("net.dup_deliveries"), run.faults.duplicated);
}

TEST(TransportIntegration, ObsCountersMirrorTransportStats) {
  const Circuit circuit = test::make_seeded_circuit(7);
  FaultPlan plan;
  plan.drop_rate = 0.05;
  obs::Obs obs;
  MpConfig mp = transport_config(UpdateSchedule::sender(2, 2), &plan);
  mp.obs = &obs;
  const MpRunResult run = run_message_passing(circuit, 4, mp);
  ASSERT_GT(run.faults.dropped, 0u);
  const auto& reg = obs.counters();
  EXPECT_EQ(reg.total("mp.retx"), run.transport.retransmits);
  EXPECT_EQ(reg.total("mp.retx_bytes"), run.transport.retransmit_bytes);
  EXPECT_EQ(reg.total("mp.dup_dropped"), run.transport.dup_dropped);
  EXPECT_EQ(reg.total("mp.ack_bytes"), run.transport.ack_bytes);
  EXPECT_EQ(reg.total("mp.acks_sent"), run.transport.acks_sent);
}

// --- E2E property: seeds x drop rates ------------------------------------

/// 50 random circuits x drop rates {0.5%, 2%, 5%}: every faulted run is
/// bit-identical to that circuit's fault-free run under the mixed schedule,
/// and every ledger balances. Seeds fan out on run_indexed; verdicts are
/// collected per seed and asserted deterministically on the main thread.
TEST(TransportProperty, FiftySeedsConvergeAtEveryDropRate) {
  constexpr std::size_t kSeeds = 50;
  constexpr double kRates[] = {0.005, 0.02, 0.05};
  UpdateSchedule mixed;
  mixed.send_loc_period = 10;
  mixed.send_rmt_period = 5;
  mixed.req_rmt_touches = 3;
  mixed.req_loc_requests = 2;

  std::vector<std::string> failures(kSeeds);
  run_indexed(kSeeds, [&](std::size_t i) {
    const Circuit circuit = test::make_seeded_circuit(i + 1);
    const MpRunResult base =
        run_message_passing(circuit, 4, transport_config(mixed, nullptr));
    for (const double rate : kRates) {
      FaultPlan plan;
      plan.drop_rate = rate;
      plan.seed = 0xFA017ULL + i;
      const MpRunResult run =
          run_message_passing(circuit, 4, transport_config(mixed, &plan));
      if (!run.transport.books_balance()) {
        failures[i] = "ledger imbalance at rate " + std::to_string(rate);
        return;
      }
      if (run.routes != base.routes ||
          run.completion_ns != base.completion_ns ||
          run.view_staleness != base.view_staleness) {
        failures[i] = "diverged at rate " + std::to_string(rate);
        return;
      }
    }
  });
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    EXPECT_EQ(failures[seed], "") << "seed " << seed + 1;
  }
}

/// The schedule matrix at one rate: all four update protocols (including
/// the blocking receiver) recover to their fault-free outcome.
TEST(TransportProperty, EveryScheduleConvergesUnderDrops) {
  for (std::uint64_t seed : {3ull, 11ull, 29ull}) {
    const Circuit circuit = test::make_seeded_circuit(seed);
    for (const CheckSchedule& s : checking_schedules()) {
      const MpRunResult base =
          run_message_passing(circuit, 4, transport_config(s.schedule, nullptr));
      FaultPlan plan;
      plan.drop_rate = 0.02;
      plan.seed = seed;
      const MpRunResult run =
          run_message_passing(circuit, 4, transport_config(s.schedule, &plan));
      expect_identical(run, base, "schedule matrix");
    }
  }
}

// --- oracle + sweep ------------------------------------------------------

/// The differential oracle passes on a faulted machine once the transport
/// recovers the losses: consistency checkpoints see the exact views the
/// fault-free run would have produced.
TEST(TransportOracle, FaultedOraclePassesWithTransportOn) {
  const Circuit circuit = test::make_seeded_circuit(7);
  FaultPlan plan;
  plan.drop_rate = 0.02;
  OracleConfig config;
  config.procs = 4;
  config.faults = &plan;
  config.transport.enabled = true;
  const OracleResult result = run_differential_oracle(circuit, config);
  EXPECT_TRUE(result.all_ok()) << result.describe();
}

/// Pool determinism: the recovery sweep renders bit-identically at any
/// pool width (name matches the tsan-threads preset filter).
TEST(FaultRecoverySweep, BitIdenticalAtAnyPoolWidth) {
  const Circuit circuit = test::make_seeded_circuit(7);
  ExperimentConfig config;
  config.procs = 4;
  std::string rendered[3];
  const int widths[] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    const test::ScopedSimThreads width(widths[i]);
    const CheckedSweep sweep = run_fault_recovery_sweep(circuit, config);
    EXPECT_TRUE(sweep.all_ok) << "width " << widths[i];
    rendered[i] = sweep.table.render();
  }
  EXPECT_EQ(rendered[0], rendered[1]);
  EXPECT_EQ(rendered[0], rendered[2]);
  // Every row of the sweep must report identical routes and balanced books.
  EXPECT_EQ(rendered[0].find("NO"), std::string::npos) << rendered[0];
  EXPECT_EQ(rendered[0].find("IMBALANCED"), std::string::npos) << rendered[0];
}

}  // namespace
}  // namespace locus
