// Tests for the shared memory implementation: the Tango-like deterministic
// executor (trace capture, deferred commits, barriers).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "assign/assignment.hpp"
#include "circuit/generator.hpp"
#include "geom/partition.hpp"
#include "route/quality.hpp"
#include "route/sequential.hpp"
#include "shm/shm_router.hpp"
#include "test_util.hpp"

namespace locus {
namespace {

class ShmRunTest : public ::testing::Test {
 protected:
  ShmRunTest() : circuit_(make_tiny_test_circuit()) {}

  ShmRunResult run(std::int32_t procs, bool dynamic = true) {
    ShmConfig config;
    config.procs = procs;
    if (!dynamic) {
      config.assignment = assign_round_robin(circuit_, procs);
    }
    return run_shared_memory(circuit_, config);
  }

  Circuit circuit_;
};

TEST_F(ShmRunTest, RoutesEveryWire) {
  ShmRunResult r = run(4);
  for (const WireRoute& route : r.routes) {
    EXPECT_TRUE(route.routed());
  }
  EXPECT_EQ(r.work.wires_routed, circuit_.num_wires() * 2);
}

TEST_F(ShmRunTest, FinalArrayMatchesRoutes) {
  ShmRunResult r = run(4);
  EXPECT_TRUE(r.cost == rebuild_cost(circuit_.channels(), circuit_.grids(), r.routes));
  EXPECT_EQ(r.circuit_height, circuit_height(r.cost));
}

TEST_F(ShmRunTest, Deterministic) {
  ShmRunResult a = run(4);
  ShmRunResult b = run(4);
  EXPECT_EQ(a.circuit_height, b.circuit_height);
  EXPECT_EQ(a.occupancy_factor, b.occupancy_factor);
  EXPECT_EQ(a.completion_ns, b.completion_ns);
  EXPECT_EQ(a.trace.size(), b.trace.size());
}

TEST_F(ShmRunTest, OneProcessorEqualsSequential) {
  ShmRunResult shm = run(1);
  SequentialResult seq = route_sequential(circuit_, {});
  EXPECT_EQ(shm.circuit_height, seq.circuit_height);
  EXPECT_EQ(shm.occupancy_factor, seq.occupancy_factor);
  EXPECT_EQ(shm.work.probes, seq.work.probes);
}

TEST_F(ShmRunTest, TraceIsTimeOrdered) {
  ShmRunResult r = run(4);
  ASSERT_GT(r.trace.size(), 0u);
  SimTime last = 0;
  for (const MemRef& ref : test::trace_refs(r.trace)) {
    EXPECT_GE(ref.time, last);
    last = ref.time;
    EXPECT_GE(ref.proc, 0);
    EXPECT_LT(ref.proc, 4);
  }
}

TEST_F(ShmRunTest, TraceWritesMatchCommitVolume) {
  ShmRunResult r = run(4);
  // Writes = commits + rip-ups + loop-counter updates. Two iterations:
  // commit twice, rip up once per wire.
  std::uint64_t cost_writes = 0;
  std::uint64_t counter_writes = 0;
  for (std::size_t p = 0; p < r.trace.streams(); ++p) {
    r.trace.for_each_entry(p, [&](const RefTrace::Entry& e) {
      if (e.op != MemOp::kWrite) return;
      if (e.addr == kLoopCounterAddr) ++counter_writes;
      else ++cost_writes;
    });
  }
  std::uint64_t committed = 0;
  for (const WireRoute& route : r.routes) {
    committed += static_cast<std::uint64_t>(route.cell_count());
  }
  // Final-iteration commits = committed; plus first-iteration commits and
  // rip-ups (unknown split) => at least 2x committed writes.
  EXPECT_GE(cost_writes, 2 * committed);
  EXPECT_GT(counter_writes, 0u);
}

TEST_F(ShmRunTest, CaptureOffYieldsEmptyTrace) {
  ShmConfig config;
  config.procs = 4;
  config.capture_trace = false;
  ShmRunResult r = run_shared_memory(circuit_, config);
  EXPECT_EQ(r.trace.size(), 0u);
  EXPECT_GT(r.circuit_height, 0);
}

TEST_F(ShmRunTest, StaticAssignmentRespected) {
  ShmConfig config;
  config.procs = 4;
  config.assignment = assign_round_robin(circuit_, 4);
  ShmRunResult r = run_shared_memory(circuit_, config);
  for (const WireRoute& route : r.routes) {
    EXPECT_TRUE(route.routed());
  }
}

TEST_F(ShmRunTest, ParallelismDegradesQuality) {
  // Simultaneously routed wires do not see each other (deferred commits),
  // so more processors cannot improve quality. Compare 1 vs 8 on the
  // larger circuit where the effect is visible.
  Circuit bnre = make_bnre_like();
  ShmConfig one;
  one.procs = 1;
  one.capture_trace = false;
  ShmConfig eight;
  eight.procs = 8;
  eight.capture_trace = false;
  ShmRunResult r1 = run_shared_memory(bnre, one);
  ShmRunResult r8 = run_shared_memory(bnre, eight);
  EXPECT_GE(r8.circuit_height, r1.circuit_height);
}

TEST_F(ShmRunTest, CompletionIsMaxOfFinishTimes) {
  ShmRunResult r = run(4);
  SimTime max_finish = 0;
  for (SimTime t : r.proc_finish_ns) max_finish = std::max(max_finish, t);
  EXPECT_EQ(r.completion_ns, max_finish);
}

/// Property sweep over processor counts: executor invariants.
class ShmProcsProperty : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(ShmProcsProperty, Invariants) {
  Circuit circuit = make_tiny_test_circuit();
  ShmConfig config;
  config.procs = GetParam();
  ShmRunResult r = run_shared_memory(circuit, config);
  EXPECT_TRUE(r.cost == rebuild_cost(circuit.channels(), circuit.grids(), r.routes));
  EXPECT_GT(r.completion_ns, 0);
  EXPECT_EQ(r.proc_finish_ns.size(), static_cast<std::size_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Procs, ShmProcsProperty, ::testing::Values(1, 2, 3, 4, 8));

/// FNV-1a over every field of every reference, little-endian field by field
/// (time 8 bytes, addr 4, proc 2, op 1), so the digest pins the exact
/// global order and every timestamp of a captured trace.
std::uint64_t trace_digest(const RefTrace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const MemRef& r : test::trace_refs(trace)) {
    mix(static_cast<std::uint64_t>(r.time), 8);
    mix(r.addr, 4);
    mix(static_cast<std::uint16_t>(r.proc), 2);
    mix(static_cast<std::uint8_t>(r.op), 1);
  }
  return h;
}

enum class DigestMode { kDynamic, kThreshold };

struct DigestCase {
  const char* name;
  bool bnre60;
  DigestMode mode;
  std::size_t refs;
  std::uint64_t digest;
};

/// Digests recorded from the sort-based capture (a stable sort by time of
/// the emission-ordered trace); the per-processor streams, merged by key
/// (test::trace_refs), must reproduce them bit for bit.
const DigestCase kDigestCases[] = {
    {"TinyDynamic", false, DigestMode::kDynamic,
     28727, 0x8b6c9dec17ea7d03ULL},
    {"TinyThreshold", false, DigestMode::kThreshold,
     28557, 0x6c7a5b4d09fe6407ULL},
    {"Bnre60Dynamic", true, DigestMode::kDynamic,
     1673321, 0x4d88c54de163aa32ULL},
    {"Bnre60Threshold", true, DigestMode::kThreshold,
     1672897, 0xbccb8ab2e86daeceULL},
};

void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

class ShmTraceDigest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(ShmTraceDigest, MatchesRecordedTrace) {
  const DigestCase& c = GetParam();
  const Circuit circuit = c.bnre60 ? test::make_bnre60() : make_tiny_test_circuit();
  ShmConfig config;
  config.procs = c.bnre60 ? 16 : 4;
  switch (c.mode) {
    case DigestMode::kDynamic:
      break;
    case DigestMode::kThreshold: {
      const Partition partition(circuit.channels(), circuit.grids(),
                                MeshShape::for_procs(config.procs));
      config.assignment = assign_threshold_cost(circuit, partition, 1000);
      break;
    }
  }
  const RefTrace trace = run_shared_memory(circuit, config).trace;
  EXPECT_EQ(trace.size(), c.refs);
  EXPECT_EQ(trace_digest(trace), c.digest);
}

INSTANTIATE_TEST_SUITE_P(Cases, ShmTraceDigest, ::testing::ValuesIn(kDigestCases),
                         [](const ::testing::TestParamInfo<DigestCase>& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace locus
