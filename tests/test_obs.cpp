// Tests for the observability layer: registry semantics, histogram
// bucketing, CSV/trace export determinism, that each published counter
// names the engine statistic it is copied from, and the cross-source laws
// (per-kind sends vs receives vs the network, sends vs the src/check packet
// ledger) that hold between independently kept statistics.
#include <gtest/gtest.h>

#include <string>

#include "check/consistency.hpp"
#include "circuit/generator.hpp"
#include "coherence/simulator.hpp"
#include "msg/driver.hpp"
#include "msg/observer.hpp"
#include "obs/obs.hpp"
#include "shm/shm_router.hpp"

namespace locus {
namespace {

TEST(Counters, RegisterAddTotal) {
  obs::CounterRegistry reg;
  const obs::MetricId a = reg.counter("a");
  const obs::MetricId b = reg.counter("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.counter("a"), a);  // idempotent
  reg.add(a);
  reg.add(a, 4);
  reg.add(b, 7);
  EXPECT_EQ(reg.total(a), 5u);
  EXPECT_EQ(reg.total("b"), 7u);
  EXPECT_EQ(reg.total("nobody"), 0u);
}

TEST(Counters, HistogramBuckets) {
  EXPECT_EQ(obs::histogram_bucket(0), 0u);
  EXPECT_EQ(obs::histogram_bucket(1), 1u);
  EXPECT_EQ(obs::histogram_bucket(2), 2u);
  EXPECT_EQ(obs::histogram_bucket(3), 2u);
  EXPECT_EQ(obs::histogram_bucket(4), 3u);
  EXPECT_EQ(obs::histogram_bucket(~0ull), obs::kHistogramBuckets - 1);
}

TEST(Counters, HistogramSnapshot) {
  obs::CounterRegistry reg;
  const obs::MetricId h = reg.histogram("lat");
  reg.observe(h, 3);
  reg.observe(h, 5);
  reg.observe(h, 100);
  const obs::HistogramSnapshot snap = reg.histogram_total("lat");
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 108u);
  EXPECT_EQ(snap.min, 3u);
  EXPECT_EQ(snap.max, 100u);
  EXPECT_DOUBLE_EQ(snap.mean(), 36.0);
  EXPECT_EQ(snap.buckets[obs::histogram_bucket(3)], 1u);
  EXPECT_EQ(snap.buckets[obs::histogram_bucket(5)], 1u);
  EXPECT_EQ(snap.buckets[obs::histogram_bucket(100)], 1u);
}

TEST(Counters, CsvIsSortedAndDeterministic) {
  obs::CounterRegistry reg;
  reg.add(reg.counter("zeta"), 1);
  reg.add(reg.counter("alpha"), 2);
  reg.observe(reg.histogram("mid"), 9);
  const std::string csv = reg.metrics_csv();
  EXPECT_EQ(csv, reg.metrics_csv());
  // Counters (name-sorted) come first, then the histogram rows.
  EXPECT_LT(csv.find("alpha"), csv.find("zeta"));
  EXPECT_LT(csv.find("zeta"), csv.find("mid.count"));
  EXPECT_NE(csv.find("counter,alpha,2\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,mid.sum,9\n"), std::string::npos);
}

TEST(Trace, JsonShape) {
  obs::TraceSink sink;
  const obs::TraceSink::StrId cat = sink.intern("net");
  const obs::TraceSink::StrId name = sink.intern("inject");
  const obs::TraceSink::StrId arg = sink.intern("bytes");
  sink.set_track_name(0, "proc 0");
  sink.complete(0, cat, name, 1000, 500, arg, 42);
  sink.instant(1, cat, name, 2500);
  sink.flow_begin(0, cat, name, 1000, 77);
  sink.flow_end(1, cat, name, 2500, 77);
  const std::string json = sink.chrome_json();
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.500"), std::string::npos);  // 500 ns = 0.5 us
  EXPECT_NE(json.find("\"bytes\":42"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"77\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

/// One standard instrumented MP run used by several tests below.
MpRunResult run_mp_with_obs(obs::Obs& obs, const UpdateSchedule& schedule) {
  MpConfig config;
  config.schedule = schedule;
  config.iterations = 2;
  config.obs = &obs;
  return run_message_passing(make_tiny_test_circuit(), 4, config);
}

TEST(ObsIntegration, MpCountersMatchEngineStats) {
  struct Case {
    const char* label;
    Circuit circuit;
    std::int32_t procs;
    UpdateSchedule schedule;
  };
  // Tiny at 4 procs sends nothing under the receiver schedule, so that
  // schedule runs on bnrE, where it does.
  const Case cases[] = {
      {"tiny 4p sender", make_tiny_test_circuit(), 4, UpdateSchedule::sender(2, 5)},
      {"bnrE 16p receiver", make_bnre_like(), 16, UpdateSchedule::receiver(1, 30)},
      {"bnrE 16p sender", make_bnre_like(), 16, UpdateSchedule::sender(2, 5)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    obs::Obs obs;
    MpConfig config;
    config.schedule = c.schedule;
    config.iterations = 2;
    config.obs = &obs;
    const MpRunResult r = run_message_passing(c.circuit, c.procs, config);
    const obs::CounterRegistry& reg = obs.counters();
    ASSERT_GT(reg.total("net.packets"), 0u);
    EXPECT_EQ(reg.total("net.packets"), r.network.packets);
    EXPECT_EQ(reg.total("net.bytes"), r.network.bytes);
    EXPECT_EQ(reg.total("net.byte_hops"), r.network.byte_hops);
    EXPECT_EQ(reg.total("net.hops"), r.network.hops);
    EXPECT_EQ(reg.total("mp.wires_routed"),
              static_cast<std::uint64_t>(r.work.wires_routed));
    EXPECT_EQ(reg.total("mp.updates_suppressed"),
              static_cast<std::uint64_t>(r.updates_suppressed));
    // The DES dispatched events and the router explored: both nonzero.
    EXPECT_GT(reg.total("sim.events"), 0u);
    EXPECT_GT(reg.total("route.routes_evaluated"), 0u);
    EXPECT_EQ(reg.histogram_total("net.packet_latency_ns").count, r.network.packets);
    // Per-kind counters: on a fault-free run every packet is sent once and
    // received once, so each family sums to the network's own totals.
    std::uint64_t sent = 0, recv = 0, sent_bytes = 0, recv_bytes = 0, by_type = 0;
    for (const auto& [name, value] : reg.merged_counters()) {
      if (name.starts_with("mp.sent.")) sent += value;
      if (name.starts_with("mp.recv.")) recv += value;
      if (name.starts_with("mp.sent_bytes.")) sent_bytes += value;
      if (name.starts_with("mp.recv_bytes.")) recv_bytes += value;
      if (name.starts_with("net.bytes_by_type.")) by_type += value;
    }
    EXPECT_EQ(sent, r.network.packets);
    EXPECT_EQ(recv, r.network.packets);
    EXPECT_EQ(sent_bytes, r.network.bytes);
    EXPECT_EQ(recv_bytes, r.network.bytes);
    EXPECT_EQ(by_type, r.network.bytes);
  }
}

TEST(ObsIntegration, MpPublishesWorkAndEventTotals) {
  // Two iterations re-route every wire once, so the run rips up.
  obs::Obs obs;
  const MpRunResult r = run_mp_with_obs(obs, UpdateSchedule::sender(2, 5));
  const obs::CounterRegistry& reg = obs.counters();
  ASSERT_GT(r.work.ripups, 0);
  EXPECT_EQ(r.work.ripups, r.work.wires_routed / 2);
  EXPECT_EQ(reg.total("mp.ripups"), static_cast<std::uint64_t>(r.work.ripups));
  EXPECT_EQ(reg.total("route.probes"), static_cast<std::uint64_t>(r.work.probes));
  EXPECT_EQ(reg.total("route.routes_evaluated"),
            static_cast<std::uint64_t>(r.work.routes_evaluated));
  EXPECT_EQ(reg.total("mp.cells_committed"),
            static_cast<std::uint64_t>(r.work.cells_committed));
  EXPECT_EQ(reg.total("sim.events"), r.machine.events);
  EXPECT_EQ(reg.histogram_total("sim.queue_depth").count, r.machine.events);
  EXPECT_EQ(reg.total("grid.view_resident_bytes"),
            static_cast<std::uint64_t>(r.view_resident_bytes));
  // Counters with no engine value are gone.
  const std::string csv = reg.metrics_csv();
  EXPECT_EQ(csv.find("node."), std::string::npos);
  EXPECT_EQ(csv.find("route.connections"), std::string::npos);
  EXPECT_EQ(csv.find("route.cells_probed"), std::string::npos);
  EXPECT_EQ(csv.find("mp.batch."), std::string::npos);
}

TEST(ObsIntegration, CountersArePublishedOnlyAtRunEnd) {
  // Per-event sites sample histograms only: while the simulation runs, no
  // counter exists yet; the end-of-run publish creates all of them.
  struct Probe : MpObserver {
    const obs::Obs* obs = nullptr;
    std::size_t counters_while_running = 1;
    std::uint64_t depth_samples = 0;
    void on_run_end(const MpRunView&) override {
      counters_while_running = obs->counters().merged_counters().size();
      depth_samples = obs->counters().histogram_total("sim.queue_depth").count;
    }
  };
  obs::Obs obs;
  Probe probe;
  probe.obs = &obs;
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 5);
  config.iterations = 2;
  config.obs = &obs;
  config.observer = &probe;
  const MpRunResult r = run_message_passing(make_tiny_test_circuit(), 4, config);
  EXPECT_EQ(probe.counters_while_running, 0u);
  EXPECT_EQ(probe.depth_samples, r.machine.events);
  EXPECT_GT(obs.counters().merged_counters().size(), 0u);
}

TEST(ObsIntegration, MpSendRecvMatchCheckLedger) {
  // The src/check consistency ledger counts every SendRmtData handed to /
  // applied from the network; the obs per-kind counters must agree exactly.
  ViewConsistencyChecker checker;
  obs::Obs obs;
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 5);
  config.iterations = 2;
  config.obs = &obs;
  config.observer = &checker;
  run_message_passing(make_tiny_test_circuit(), 4, config);
  const ConsistencyReport& report = checker.report();
  EXPECT_TRUE(report.converged());
  EXPECT_GT(report.deltas_sent, 0);
  EXPECT_EQ(obs.counters().total("mp.sent.SendRmtData"),
            static_cast<std::uint64_t>(report.deltas_sent));
  EXPECT_EQ(obs.counters().total("mp.recv.SendRmtData"),
            static_cast<std::uint64_t>(report.deltas_applied));
}

TEST(ObsIntegration, TraceExportIsDeterministic) {
  // Same seed, same schedule: the Chrome JSON must be byte-identical.
  auto traced_run = [] {
    obs::ObsOptions opt;
    opt.trace = true;
    opt.hop_detail = true;
    obs::Obs obs(opt);
    run_mp_with_obs(obs, UpdateSchedule::receiver(1, 30));
    return obs.trace()->chrome_json();
  };
  const std::string first = traced_run();
  EXPECT_GT(first.size(), 0u);
  EXPECT_EQ(first, traced_run());
}

TEST(ObsIntegration, MpTraceContainsRoutesAndPackets) {
  obs::ObsOptions opt;
  opt.trace = true;
  obs::Obs obs(opt);
  const MpRunResult r = run_mp_with_obs(obs, UpdateSchedule::sender(2, 5));
  ASSERT_NE(obs.trace(), nullptr);
  EXPECT_GT(obs.trace()->size(), 0u);
  const std::string json = obs.trace()->chrome_json();
  EXPECT_NE(json.find("\"route_wire\""), std::string::npos);
  EXPECT_NE(json.find("\"compute\""), std::string::npos);
  if (r.network.packets > 0) {
    EXPECT_NE(json.find("\"inject\""), std::string::npos);
    EXPECT_NE(json.find("\"deliver\""), std::string::npos);
  }
}

TEST(ObsIntegration, ShmCountersAndCoherencePublish) {
  obs::Obs obs;
  ShmConfig config;
  config.procs = 4;
  config.iterations = 2;
  config.obs = &obs;
  const Circuit circuit = make_tiny_test_circuit();
  const ShmRunResult r = run_shared_memory(circuit, config);
  EXPECT_EQ(obs.counters().total("shm.wires_routed"),
            static_cast<std::uint64_t>(r.work.wires_routed));
  EXPECT_EQ(obs.counters().total("shm.trace_refs"), r.trace.size());
  ASSERT_GT(r.work.ripups, 0);
  EXPECT_EQ(obs.counters().total("shm.ripups"), static_cast<std::uint64_t>(r.work.ripups));
  EXPECT_EQ(obs.counters().total("shm.cells_committed"),
            static_cast<std::uint64_t>(r.work.cells_committed));
  EXPECT_EQ(obs.counters().total("route.probes"), static_cast<std::uint64_t>(r.work.probes));
  EXPECT_EQ(obs.counters().total("route.routes_evaluated"),
            static_cast<std::uint64_t>(r.work.routes_evaluated));

  CoherenceSim sim(4, CoherenceParams{});
  sim.replay(r.trace);
  sim.publish_obs(obs);
  EXPECT_EQ(obs.counters().total(obs::CoherenceObsNames::kAccesses),
            sim.traffic().accesses);
  EXPECT_EQ(obs.counters().total(obs::CoherenceObsNames::kTotalBytes),
            sim.traffic().total_bytes());
  EXPECT_EQ(obs.counters().total(obs::CoherenceObsNames::kLinesTouched),
            sim.lines_touched());
}

TEST(ObsIntegration, NullObsLeavesRunIdentical) {
  // The default (no obs) path must produce the same routing as an
  // instrumented run: observation does not perturb the simulation.
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 5);
  config.iterations = 2;
  const MpRunResult plain = run_message_passing(make_tiny_test_circuit(), 4, config);
  obs::Obs obs;
  const MpRunResult observed = run_mp_with_obs(obs, UpdateSchedule::sender(2, 5));
  EXPECT_EQ(plain.circuit_height, observed.circuit_height);
  EXPECT_EQ(plain.completion_ns, observed.completion_ns);
  EXPECT_EQ(plain.network.packets, observed.network.packets);
  EXPECT_EQ(plain.network.bytes, observed.network.bytes);
}

}  // namespace
}  // namespace locus
