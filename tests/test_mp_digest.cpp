// Message passing run digests: the byte-identity guard for the MP engine.
// Each case pins an FNV-1a digest of the final routes together with the
// on-wire bytes, the simulated completion time and the suppressed-update
// count, so any change to view or delta storage, the update scan, or the
// packet path that perturbs a single route cell, packet byte or nanosecond
// fails here. The cases cover the paper's six bnrE schedules, a batched
// scale-circuit run with 2x128 tiles, and the two MP runs of the
// checked-faults benchmark (2k wires on a fat tree with M/D/1 links, the
// reliable transport recovering 2% drops).
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <string>

#include "circuit/generator.hpp"
#include "circuit/hier_generator.hpp"
#include "msg/driver.hpp"
#include "sim/fault.hpp"

namespace locus {
namespace {

/// FNV-1a over every route field (wire id, each connection's segment
/// endpoints, committed cells, path cost), then the three run totals, each
/// value mixed little-endian as 8 bytes.
std::uint64_t run_digest(const MpRunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::int64_t value) {
    const auto v = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  auto mix_point = [&mix](GridPoint p) {
    mix(p.channel);
    mix(p.x);
  };
  for (const WireRoute& w : r.routes) {
    mix(w.wire);
    mix(static_cast<std::int64_t>(w.connections.size()));
    for (const Route& route : w.connections) {
      mix(static_cast<std::int64_t>(route.segments().size()));
      for (const Segment& s : route.segments()) {
        mix_point(s.from);
        mix_point(s.to);
      }
    }
    mix(static_cast<std::int64_t>(w.cells.size()));
    for (GridPoint p : w.cells) mix_point(p);
    mix(w.path_cost);
  }
  mix(static_cast<std::int64_t>(r.bytes_transferred));
  mix(r.completion_ns);
  mix(r.updates_suppressed);
  return h;
}

enum class DigestCircuit { kBnre, kScale1k, kFaults };

struct DigestCase {
  const char* name;
  DigestCircuit circuit;
  UpdateSchedule schedule;
  std::uint64_t digest;
  std::uint64_t bytes;
  std::int64_t completion_ns;
  std::int64_t suppressed;
};

/// Recorded while views and delta arrays could still be dense; the dense
/// and the tiled runs gave these same values.
const DigestCase kDigestCases[] = {
    {"BnreSender2_1", DigestCircuit::kBnre, UpdateSchedule::sender(2, 1),
     0x17b4d4439a8e9592ULL, 381935, 1556402600, 194},
    {"BnreSender2_10", DigestCircuit::kBnre, UpdateSchedule::sender(2, 10),
     0x3d402094ff93ad43ULL, 158580, 1277675400, 0},
    {"BnreSender10_20", DigestCircuit::kBnre, UpdateSchedule::sender(10, 20),
     0x77e4f8203195b584ULL, 95201, 1208212000, 0},
    {"BnreReceiver1_30", DigestCircuit::kBnre, UpdateSchedule::receiver(1, 30),
     0x86c0d6fee36e2640ULL, 7057, 1109205000, 0},
    {"BnreReceiverBlk1_30", DigestCircuit::kBnre,
     UpdateSchedule::receiver(1, 30, /*blocking=*/true),
     0x754e8e1780d4e696ULL, 7027, 1123174900, 0},
    {"BnreReceiver5_10", DigestCircuit::kBnre, UpdateSchedule::receiver(5, 10),
     0xa2122bcfadbfa8c3ULL, 41122, 1141485400, 0},
    {"Scale1kBatched", DigestCircuit::kScale1k, UpdateSchedule::sender(2, 10),
     0x4866e2a2a07dd6e1ULL, 707412, 4623240400, 0},
    {"FaultsSender2_1", DigestCircuit::kFaults, UpdateSchedule::sender(2, 1),
     0x881682f0967c7152ULL, 7224197, 20070192200, 980},
    {"FaultsReceiverBlk1_30", DigestCircuit::kFaults,
     UpdateSchedule::receiver(1, 30, /*blocking=*/true),
     0x2d4048873c8a3c8eULL, 243185, 17424011316, 0},
};

void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

class MpRunDigest : public ::testing::TestWithParam<DigestCase> {};

Circuit make_case_circuit(DigestCircuit which) {
  switch (which) {
    case DigestCircuit::kBnre:
      return make_bnre_like();
    case DigestCircuit::kScale1k:
      return make_scale_circuit(1'000, /*seed=*/0xB17ULL);
    case DigestCircuit::kFaults:
      return make_scale_circuit(2'000, /*seed=*/0x5CA1EULL);
  }
  return make_bnre_like();
}

TEST_P(MpRunDigest, MatchesRecordedRun) {
  const DigestCase& c = GetParam();
  const Circuit circuit = make_case_circuit(c.circuit);
  MpConfig config;
  config.schedule = c.schedule;
  FaultPlan faults;
  if (c.circuit == DigestCircuit::kScale1k) {
    config.shard.batch_updates = true;
    config.shard.tile = TileDims{2, 128};
  } else if (c.circuit == DigestCircuit::kFaults) {
    config.edges = Topology::Edges::kFatTree;
    config.fat_tree_arity = 2;
    config.link_cost.kind = LinkCostModelKind::kMd1;
    config.transport.enabled = true;
    faults.drop_rate = 0.02;
    config.faults = &faults;
  }
  const MpRunResult r = run_message_passing(circuit, /*procs=*/16, config);
  EXPECT_EQ(r.bytes_transferred, c.bytes);
  EXPECT_EQ(r.completion_ns, c.completion_ns);
  EXPECT_EQ(r.updates_suppressed, c.suppressed);
  if (c.circuit == DigestCircuit::kFaults) {
    EXPECT_GT(r.faults.dropped, 0u);
  }
  const std::uint64_t digest = run_digest(r);
  EXPECT_EQ(digest, c.digest) << "digest 0x" << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(Cases, MpRunDigest, ::testing::ValuesIn(kDigestCases),
                         [](const ::testing::TestParamInfo<DigestCase>& param_info) {
                           return std::string(param_info.param.name);
                         });

/// Region batching changes packet bytes (that is its point), so it is not
/// bit-identical to the unbatched run — but it must still converge: all
/// wires routed with sane quality. At 1k wires the 8-byte per-block frames
/// can outweigh the tightened rects, so the traffic assertion is a loose
/// band; the real saving is measured by the scale bench at 10k wires.
TEST(ShardIdentity, BatchedUpdatesConverge) {
  const Circuit circuit = make_scale_circuit(1'000, /*seed=*/0xB17ULL);
  MpConfig config;
  config.schedule = UpdateSchedule::sender(2, 10);
  const MpRunResult plain = run_message_passing(circuit, 16, config);
  config.shard.batch_updates = true;
  const MpRunResult batched = run_message_passing(circuit, 16, config);
  EXPECT_EQ(batched.routes.size(), plain.routes.size());
  EXPECT_GT(batched.circuit_height, 0);
  EXPECT_GT(batched.bytes_transferred, 0u);
  EXPECT_LT(static_cast<double>(batched.bytes_transferred),
            1.15 * static_cast<double>(plain.bytes_transferred));
}

}  // namespace
}  // namespace locus
