// Tests for the src/check subsystem: the view-consistency checker, the
// differential oracle, route legality, the trace conflict scanner, and the
// golden coherence claims they rest on. These carry the ctest label `check`
// (run just them with `ctest -L check`).
#include <gtest/gtest.h>

#include <algorithm>

#include "check/consistency.hpp"
#include "check/legality.hpp"
#include "check/oracle.hpp"
#include "check/trace_scan.hpp"
#include "coherence/simulator.hpp"
#include "msg/driver.hpp"
#include "msg/packets.hpp"
#include "route/sequential.hpp"
#include "shm/shm_router.hpp"
#include "sim/fault.hpp"
#include "reference_trace_scan.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace locus {
namespace {

MpConfig receiver_config(bool blocking) {
  MpConfig config;
  config.schedule = UpdateSchedule::receiver(5, 2, blocking);
  return config;
}

/// Zero-fault oracle: every implementation agrees within the bands, every
/// message passing run is consistent at all checkpoints and converged.
TEST(CheckOracle, ZeroFaultAllVariantsPass) {
  OracleConfig config;
  config.procs = 4;
  const OracleResult result =
      run_differential_oracle(test::make_seeded_circuit(), config);
  ASSERT_EQ(result.variants.size(), 6u);
  for (const OracleVariant& v : result.variants) {
    EXPECT_TRUE(v.ok()) << result.describe();
    if (v.is_message_passing) {
      EXPECT_GT(v.consistency.checkpoints, 0) << v.name;
      EXPECT_EQ(v.consistency.violations, 0) << v.name;
      EXPECT_EQ(v.consistency.unmatched_applies, 0) << v.name;
      EXPECT_EQ(v.consistency.unencodable_deltas, 0) << v.name;
      EXPECT_TRUE(v.consistency.converged()) << v.name;
    }
  }
  EXPECT_TRUE(result.all_ok());
}

/// Dropping sender-initiated updates leaves in-flight deltas unaccounted:
/// the run still terminates, but the checker reports non-convergence.
TEST(CheckOracle, DroppedUpdatesDetectedAsDivergence) {
  FaultPlan plan;
  plan.drop_rate = 0.25;
  plan.packet_types = {kMsgSendLocData, kMsgSendRmtData};

  ConsistencyOptions options;
  ViewConsistencyChecker checker(options);
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 2);
  config.faults = &plan;
  config.observer = &checker;
  const MpRunResult run =
      run_message_passing(test::make_seeded_circuit(), 4, config);

  EXPECT_GT(run.faults.dropped, 0u);
  EXPECT_GT(run.circuit_height, 0);  // terminated with a result
  const ConsistencyReport& report = checker.report();
  EXPECT_TRUE(report.run_ended);
  EXPECT_FALSE(report.converged());
  EXPECT_GT(report.final_inflight_cells + report.final_outstanding_packets, 0);
}

/// Duplicated deltas cancel in the per-cell conservation equality, so the
/// packet ledger is what must catch them: unmatched applies.
TEST(CheckOracle, DuplicatedDeltasDetectedByLedger) {
  FaultPlan plan;
  plan.dup_rate = 0.5;
  plan.packet_types = {kMsgSendRmtData};

  ViewConsistencyChecker checker;
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 2);
  config.faults = &plan;
  config.observer = &checker;
  const MpRunResult run =
      run_message_passing(test::make_seeded_circuit(), 4, config);

  EXPECT_GT(run.faults.duplicated, 0u);
  EXPECT_GT(checker.report().unmatched_applies, 0);
  EXPECT_FALSE(checker.report().consistent());
}

/// The conservation law is closed under delivery schedule: delaying and
/// reordering packets (no loss, no duplication) must stay clean.
TEST(CheckOracle, DelayAndReorderStayConsistent) {
  FaultPlan plan;
  plan.delay_rate = 0.4;
  plan.delay_ns = 500'000;
  plan.reorder_rate = 0.3;
  plan.stall_rate = 0.1;
  plan.stall_ns = 100'000;

  ViewConsistencyChecker checker;
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 2);
  config.faults = &plan;
  config.observer = &checker;
  const MpRunResult run =
      run_message_passing(test::make_seeded_circuit(), 4, config);

  EXPECT_GT(run.faults.delayed + run.faults.reordered + run.faults.stalls, 0u);
  EXPECT_TRUE(checker.report().consistent()) << checker.report().violations;
  EXPECT_TRUE(checker.report().converged());
}

/// Legality: sequential routes pass; a tampered route (segment chain broken)
/// is flagged.
TEST(CheckLegality, SequentialRoutesLegalTamperCaught) {
  const Circuit circuit = test::make_seeded_circuit();
  const SequentialResult seq = route_sequential(circuit, {});
  const LegalityReport clean = check_route_legality(circuit, seq.routes);
  EXPECT_TRUE(clean.legal()) << (clean.issues.empty()
                                     ? ""
                                     : clean.issues.front().what);
  EXPECT_GT(clean.cells_checked, 0);

  std::vector<WireRoute> tampered = seq.routes;
  bool broke_one = false;
  for (WireRoute& route : tampered) {
    if (route.cell_count() < 2) continue;
    // Drop a committed cell so the route no longer covers its connections:
    // shrink the last run, or drop it if it is a single cell.
    RowRun& last = route.runs.back();
    if (last.length() > 1) {
      --last.x_hi;
    } else {
      route.runs.pop_back();
    }
    broke_one = true;
    break;
  }
  ASSERT_TRUE(broke_one);
  EXPECT_FALSE(check_route_legality(circuit, tampered).legal());
}

/// Malformed committed runs are reported as issues at the boundary, never
/// asserted on (run these under ASan+UBSan): inverted, off the grid,
/// uncoalesced, out of order, or missing a pin.
TEST(CheckLegality, MalformedRunsReported) {
  const Circuit circuit = test::make_seeded_circuit();
  const SequentialResult seq = route_sequential(circuit, {});
  ASSERT_TRUE(check_route_legality(circuit, seq.routes).legal());

  // A wire whose route has at least two runs, one of them two cells or
  // longer, so every tamper below has something to work on.
  const auto target = std::find_if(seq.routes.begin(), seq.routes.end(), [](const WireRoute& r) {
    return r.runs.size() >= 2 &&
           std::any_of(r.runs.begin(), r.runs.end(),
                       [](const RowRun& run) { return run.length() >= 2; });
  });
  ASSERT_NE(target, seq.routes.end());
  const WireId id = target->wire;
  const std::size_t long_run = static_cast<std::size_t>(
      std::find_if(target->runs.begin(), target->runs.end(),
                   [](const RowRun& run) { return run.length() >= 2; }) -
      target->runs.begin());

  const auto expect_reported = [&](const char* what, auto&& tamper) {
    std::vector<WireRoute> routes = seq.routes;
    tamper(routes[static_cast<std::size_t>(id)]);
    const LegalityReport report = check_route_legality(circuit, routes);
    ASSERT_EQ(report.issues.size(), 1u) << what;
    EXPECT_EQ(report.issues.front().wire, id) << what;
  };
  expect_reported("inverted run", [&](WireRoute& r) {
    std::swap(r.runs[long_run].x_lo, r.runs[long_run].x_hi);
  });
  expect_reported("run at channel -1", [](WireRoute& r) { r.runs.front().channel = -1; });
  expect_reported("run past the last grid",
                  [&](WireRoute& r) { r.runs.back().x_hi = circuit.grids(); });
  expect_reported("touching runs left uncoalesced", [&](WireRoute& r) {
    const RowRun run = r.runs[long_run];
    r.runs[long_run].x_hi = run.x_lo;
    r.runs.insert(r.runs.begin() + static_cast<std::ptrdiff_t>(long_run) + 1,
                  RowRun{run.channel, run.x_lo + 1, run.x_hi});
  });
  expect_reported("runs out of order",
                  [](WireRoute& r) { std::swap(r.runs[0], r.runs[1]); });
  expect_reported("missing pin cell", [&](WireRoute& r) {
    // A consistent route (runs == the connections' union) that reaches no
    // pin column: one cell in a column none of the wire's pins use.
    const Wire& wire = circuit.wire(id);
    std::int32_t x = 0;
    while (std::any_of(wire.pins.begin(), wire.pins.end(),
                       [x](const Pin& p) { return p.x == x; })) {
      ++x;
    }
    Route lone;
    lone.append(Segment{GridPoint{0, x}, GridPoint{0, x}});
    r.connections = {lone};
    r.runs = collect_row_runs(r.connections);
  });
}

/// Trace scanner basics: the shm trace of a real run has references on
/// shared lines, counts are internally consistent, and coarser lines fold
/// more addresses together (never more distinct lines than finer ones).
TEST(CheckTraceScan, CountsConsistentAcrossLineSizes) {
  ShmConfig config;
  config.procs = 4;
  config.capture_trace = true;
  const ShmRunResult run =
      run_shared_memory(test::make_seeded_circuit(), config);
  ASSERT_GT(run.trace.size(), 0u);

  std::int64_t prev_lines = -1;
  for (std::int32_t line : {4, 8, 16, 32}) {
    TraceScanOptions options;
    options.line_bytes = line;
    const TraceScanReport report = scan_trace_conflicts(run.trace, options);
    EXPECT_EQ(report.refs, static_cast<std::int64_t>(run.trace.size()));
    EXPECT_EQ(report.conflicts(), report.ww + report.wr + report.rw);
    std::int64_t bucketed = 0;
    for (std::int64_t count : report.histogram) bucketed += count;
    EXPECT_EQ(bucketed, report.lines_with_conflicts);
    EXPECT_LE(report.lines_with_conflicts, report.lines_touched);
    if (prev_lines >= 0) {
      EXPECT_LE(report.lines_touched, prev_lines);
    }
    prev_lines = report.lines_touched;
    for (const LineConflicts& hot : report.hottest) EXPECT_GT(hot.total(), 0);
  }
}

/// Checks the write-interval scan against the merged scan it replaced
/// (test::reference_scan_trace_conflicts) at 4, 8, 16 and 32 B, field by
/// field: counts, histogram and hottest lines.
void expect_scan_matches_reference(const RefTrace& trace) {
  for (const std::int32_t line : {4, 8, 16, 32}) {
    TraceScanOptions options;
    options.line_bytes = line;
    const TraceScanReport got = scan_trace_conflicts(trace, options);
    const TraceScanReport want = test::reference_scan_trace_conflicts(trace, options);
    SCOPED_TRACE(::testing::Message() << "line " << line);
    EXPECT_EQ(got.refs, want.refs);
    EXPECT_EQ(got.lines_touched, want.lines_touched);
    EXPECT_EQ(got.lines_with_conflicts, want.lines_with_conflicts);
    EXPECT_EQ(got.ww, want.ww);
    EXPECT_EQ(got.wr, want.wr);
    EXPECT_EQ(got.rw, want.rw);
    EXPECT_EQ(got.histogram, want.histogram);
    ASSERT_EQ(got.hottest.size(), want.hottest.size());
    for (std::size_t i = 0; i < want.hottest.size(); ++i) {
      EXPECT_EQ(got.hottest[i].line, want.hottest[i].line) << "hottest " << i;
      EXPECT_EQ(got.hottest[i].ww, want.hottest[i].ww) << "hottest " << i;
      EXPECT_EQ(got.hottest[i].wr, want.hottest[i].wr) << "hottest " << i;
      EXPECT_EQ(got.hottest[i].rw, want.hottest[i].rw) << "hottest " << i;
    }
  }
}

/// Seeded traces whose multi-reference blocks overlap across up to 32
/// streams (test::make_overlapping_trace), so many readers of a line meet
/// between two writes in an order the stream-by-stream visit does not follow.
TEST(CheckTraceScan, EqualsMergedScanOnOverlappingTraces) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed ^ 0x5CA7u);
    const auto procs = static_cast<std::int32_t>(1 + rng.bounded(32));
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " procs " << procs);
    expect_scan_matches_reference(test::make_overlapping_trace(rng, procs, 400));
  }
}

/// The 60-wire bnrE shm trace (16 processors, dynamic loop).
TEST(CheckTraceScan, EqualsMergedScanOnBnre60ShmTrace) {
  ShmConfig config;
  config.procs = 16;
  const RefTrace trace = run_shared_memory(test::make_bnre60(), config).trace;
  ASSERT_GT(trace.size(), 1'000'000u);
  expect_scan_matches_reference(trace);
}

/// Golden coherence claim (paper Table 3 in miniature): bus traffic grows
/// with the line size on the write-shared cost array, and the overwhelming
/// share of the bytes is write-caused (>80% in the paper's Table 3).
TEST(CheckGolden, LineSizeSweepTrafficGrowsAndWritesDominate) {
  ShmConfig config;
  config.procs = 4;
  config.capture_trace = true;
  const ShmRunResult run =
      run_shared_memory(test::make_seeded_circuit(), config);
  ASSERT_GT(run.trace.size(), 0u);

  const std::vector<std::int32_t> sizes = {4, 8, 16, 32};
  const std::vector<CoherenceTraffic> sweep =
      sweep_line_sizes(run.trace, config.procs, sizes);
  ASSERT_EQ(sweep.size(), sizes.size());
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GT(sweep[i].total_bytes(), sweep[i - 1].total_bytes())
        << sizes[i] << "B vs " << sizes[i - 1] << "B";
  }
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_GT(sweep[i].write_fraction(), 0.8) << sizes[i] << "B";
  }
}

/// Delayed ReqRmtData responses: the blocking receiver schedule eats the
/// full latency (completion strictly worse than fault-free), while the
/// non-blocking one continues routing on its stale view and loses less.
TEST(CheckGolden, BlockingStallsOnDelayedResponsesNonBlockingProceeds) {
  const Circuit circuit = test::make_seeded_circuit();

  const MpRunResult blocking_base =
      run_message_passing(circuit, 4, receiver_config(true));
  const MpRunResult nonblocking_base =
      run_message_passing(circuit, 4, receiver_config(false));

  FaultPlan plan;
  plan.delay_rate = 1.0;
  plan.delay_ns = 2'000'000;  // 2 ms on every ReqRmtData response
  plan.packet_types = {kMsgRspRmtData};

  MpConfig blocking = receiver_config(true);
  blocking.faults = &plan;
  const MpRunResult blocking_faulted = run_message_passing(circuit, 4, blocking);

  ViewConsistencyChecker checker;
  MpConfig nonblocking = receiver_config(false);
  nonblocking.faults = &plan;
  nonblocking.observer = &checker;
  const MpRunResult nonblocking_faulted =
      run_message_passing(circuit, 4, nonblocking);

  EXPECT_GT(blocking_faulted.faults.delayed, 0u);
  // Blocking: the stall is on the critical path.
  EXPECT_GT(blocking_faulted.completion_ns, blocking_base.completion_ns);
  // Non-blocking: still terminates, views stay conservation-consistent.
  EXPECT_GT(nonblocking_faulted.circuit_height, 0);
  EXPECT_TRUE(checker.report().consistent());
  // And the injected latency hurts it strictly less than the blocking run.
  const SimTime blocking_loss =
      blocking_faulted.completion_ns - blocking_base.completion_ns;
  const SimTime nonblocking_loss =
      nonblocking_faulted.completion_ns - nonblocking_base.completion_ns;
  EXPECT_LT(nonblocking_loss, blocking_loss);
}

/// FaultPlan::parse round-trips the CLI syntax used by the examples.
TEST(CheckFaultPlan, ParseCliSyntax) {
  const auto plan = FaultPlan::parse("drop:0.01,delay:500,types:1+2,seed:9");
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->drop_rate, 0.01);
  EXPECT_EQ(plan->delay_ns, 500);
  EXPECT_DOUBLE_EQ(plan->delay_rate, 0.99);  // remaining probability mass
  EXPECT_EQ(plan->seed, 9u);
  ASSERT_EQ(plan->packet_types.size(), 2u);
  EXPECT_TRUE(plan->applies_to(kMsgSendLocData));
  EXPECT_TRUE(plan->applies_to(kMsgSendRmtData));
  EXPECT_FALSE(plan->applies_to(kMsgRspRmtData));

  EXPECT_FALSE(FaultPlan::parse("drop:2").has_value());
  EXPECT_FALSE(FaultPlan::parse("bogus:1").has_value());
  EXPECT_FALSE(FaultPlan::parse("drop:0.9,dup:0.9").has_value());
  EXPECT_TRUE(FaultPlan::parse("").has_value());
}

}  // namespace
}  // namespace locus
