// Tests for the cache coherence simulator: protocol event-by-event
// scenarios, traffic attribution, and line-size behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "coherence/simulator.hpp"
#include "reference_coherence_sim.hpp"
#include "shm/shm_router.hpp"
#include "shm/trace.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace locus {
namespace {

CoherenceSim make_wbi(std::int32_t line = 8, std::int32_t procs = 4) {
  CoherenceParams params;
  params.line_size = line;
  return CoherenceSim(procs, params);
}

TEST(Wbi, ColdReadMissFetchesLine) {
  CoherenceSim sim = make_wbi();
  sim.access(0, 0, MemOp::kRead);
  EXPECT_EQ(sim.traffic().cold_fetch_bytes, 8u);
  EXPECT_EQ(sim.traffic().read_misses, 1u);
  EXPECT_EQ(sim.traffic().total_bytes(), 8u);
}

TEST(Wbi, RepeatReadIsFree) {
  CoherenceSim sim = make_wbi();
  sim.access(0, 0, MemOp::kRead);
  sim.access(0, 4, MemOp::kRead);  // same 8-byte line
  EXPECT_EQ(sim.traffic().total_bytes(), 8u);
}

TEST(Wbi, FirstWriteToCleanCostsOneWord) {
  CoherenceSim sim = make_wbi();
  sim.access(0, 0, MemOp::kRead);
  sim.access(0, 0, MemOp::kWrite);
  EXPECT_EQ(sim.traffic().word_write_bytes, 4u);
  sim.access(0, 0, MemOp::kWrite);  // dirty hit: free
  sim.access(0, 4, MemOp::kWrite);  // same line, still dirty: free
  EXPECT_EQ(sim.traffic().word_write_bytes, 4u);
}

TEST(Wbi, WriteInvalidatesSharers) {
  CoherenceSim sim = make_wbi();
  sim.access(0, 0, MemOp::kRead);
  sim.access(1, 0, MemOp::kRead);
  sim.access(0, 0, MemOp::kWrite);
  EXPECT_EQ(sim.traffic().invalidation_msgs, 1u);
  // Proc 1 lost its copy; proc 0 holds it dirty, so the re-read is served
  // by a flush (write-attributed traffic either way).
  sim.access(1, 0, MemOp::kRead);
  EXPECT_EQ(sim.traffic().read_flush_bytes, 8u);
}

TEST(Wbi, RefetchAfterInvalidationClassifiedAsWriteTraffic) {
  // p0 read (cold) / p1 write (invalidates p0, dirty at p1) / p2 read
  // (flush -> clean at {1,2}) / p0 read: line is memory-clean but p0 held
  // it before the invalidation -> refetch, attributed to writes.
  CoherenceSim sim = make_wbi();
  sim.access(0, 0, MemOp::kRead);
  sim.access(1, 0, MemOp::kWrite);
  sim.access(2, 0, MemOp::kRead);
  std::uint64_t writes_before = sim.traffic().write_bytes();
  sim.access(0, 0, MemOp::kRead);
  EXPECT_EQ(sim.traffic().refetch_bytes, 8u);
  EXPECT_EQ(sim.traffic().write_bytes(), writes_before + 8u);
  EXPECT_EQ(sim.traffic().cold_fetch_bytes, 8u);  // only p0's first read
}

TEST(Wbi, RemoteReadOfDirtyLineFlushes) {
  CoherenceSim sim = make_wbi();
  sim.access(0, 0, MemOp::kWrite);  // write miss: fill + word write
  EXPECT_EQ(sim.traffic().write_fetch_bytes, 8u);
  sim.access(1, 0, MemOp::kRead);   // dirty in 0: flush supplies 1
  EXPECT_EQ(sim.traffic().read_flush_bytes, 8u);
  // Both clean now: proc 0 re-reading is free.
  sim.access(0, 0, MemOp::kRead);
  EXPECT_EQ(sim.traffic().total_bytes(), 8u + 4u + 8u);
}

TEST(Wbi, WriteToRemoteDirtyFlushesAndTakesOwnership) {
  CoherenceSim sim = make_wbi();
  sim.access(0, 0, MemOp::kWrite);
  std::uint64_t before = sim.traffic().total_bytes();
  sim.access(1, 0, MemOp::kWrite);
  const CoherenceTraffic& t = sim.traffic();
  EXPECT_EQ(t.write_flush_bytes, 8u);
  EXPECT_EQ(t.total_bytes(), before + 8u + 4u);  // flush + word write
  // Proc 1 now dirty-owns it.
  sim.access(1, 0, MemOp::kWrite);
  EXPECT_EQ(sim.traffic().total_bytes(), before + 12u);
}

TEST(Wbi, PingPongScalesWithLineSize) {
  // Alternating writers: each handoff costs flush(line) + word. This is
  // the mechanism behind Table 3's growth with line size.
  for (std::int32_t line : {4, 8, 16, 32}) {
    CoherenceSim sim = make_wbi(line);
    sim.access(0, 0, MemOp::kWrite);
    std::uint64_t start = sim.traffic().total_bytes();
    for (int i = 0; i < 10; ++i) {
      sim.access(i % 2 == 0 ? 1 : 0, 0, MemOp::kWrite);
    }
    EXPECT_EQ(sim.traffic().total_bytes() - start,
              10u * (static_cast<std::uint64_t>(line) + 4u))
        << "line=" << line;
  }
}

TEST(Wbi, WriteFractionHighUnderPingPong) {
  CoherenceSim sim = make_wbi();
  for (int i = 0; i < 100; ++i) {
    sim.access(i % 4, static_cast<std::uint32_t>((i * 12) % 64), MemOp::kWrite);
  }
  EXPECT_GT(sim.traffic().write_fraction(), 0.8);
}

TEST(Wbi, DistinctLinesAreIndependent) {
  CoherenceSim sim = make_wbi(8);
  sim.access(0, 0, MemOp::kRead);
  sim.access(0, 8, MemOp::kRead);   // next line
  sim.access(0, 16, MemOp::kRead);  // next line
  EXPECT_EQ(sim.traffic().cold_fetch_bytes, 24u);
  EXPECT_EQ(sim.lines_touched(), 3u);
}

TEST(WriteThrough, EveryWriteCostsAWord) {
  CoherenceParams params;
  params.line_size = 8;
  params.protocol = ProtocolKind::kWriteThrough;
  CoherenceSim sim(4, params);
  sim.access(0, 0, MemOp::kWrite);  // miss fill + word
  sim.access(0, 0, MemOp::kWrite);  // word again (no dirty state)
  sim.access(0, 0, MemOp::kWrite);
  EXPECT_EQ(sim.traffic().word_write_bytes, 12u);
  EXPECT_EQ(sim.traffic().write_fetch_bytes, 8u);
}

TEST(Mesi, SilentUpgradeFromExclusive) {
  CoherenceParams params;
  params.line_size = 8;
  params.protocol = ProtocolKind::kMesi;
  CoherenceSim sim(4, params);
  sim.access(0, 0, MemOp::kRead);   // E state (alone)
  std::uint64_t before = sim.traffic().total_bytes();
  sim.access(0, 0, MemOp::kWrite);  // E -> M: silent
  EXPECT_EQ(sim.traffic().total_bytes(), before);
}

TEST(Mesi, SharedUpgradeCostsInvalidation) {
  CoherenceParams params;
  params.line_size = 8;
  params.protocol = ProtocolKind::kMesi;
  CoherenceSim sim(4, params);
  sim.access(0, 0, MemOp::kRead);
  sim.access(1, 0, MemOp::kRead);   // now shared: no E for either
  std::uint64_t before = sim.traffic().total_bytes();
  sim.access(0, 0, MemOp::kWrite);
  EXPECT_GT(sim.traffic().total_bytes(), before);
  EXPECT_EQ(sim.traffic().invalidation_msgs, 1u);
}

TEST(Mesi, CheaperThanWbiOnPrivateData) {
  // A single processor reading then writing its own data: MESI's E state
  // removes the word writes WBI pays.
  RefTrace trace;
  for (std::uint32_t i = 0; i < 50; ++i) {
    trace.append({static_cast<SimTime>(2 * i), i * 8, 0, MemOp::kRead});
    trace.append({static_cast<SimTime>(2 * i + 1), i * 8, 0, MemOp::kWrite});
  }
  CoherenceParams wbi_params;
  wbi_params.line_size = 8;
  CoherenceParams mesi_params = wbi_params;
  mesi_params.protocol = ProtocolKind::kMesi;
  CoherenceSim wbi(4, wbi_params);
  CoherenceSim mesi(4, mesi_params);
  wbi.replay(trace);
  mesi.replay(trace);
  EXPECT_LT(mesi.traffic().total_bytes(), wbi.traffic().total_bytes());
}

TEST(Replay, CountsAccesses) {
  RefTrace trace;
  trace.append({0, 0, 0, MemOp::kRead});
  trace.append({1, 8, 1, MemOp::kWrite});
  CoherenceSim sim = make_wbi();
  sim.replay(trace);
  EXPECT_EQ(sim.traffic().accesses, 2u);
}

TEST(Replay, SecondReplayKeepsNoFlushSlot) {
  // The first trace ends inside an interval in which proc 1, which never
  // held line 0, took proc 0's dirty flush. The second trace opens with a
  // read by proc 2, which lost the line to proc 0's write: a refetch, not a
  // takeover of the first replay's flush.
  RefTrace first;
  first.append({1, 0, 2, MemOp::kRead});
  first.append({2, 0, 0, MemOp::kWrite});
  first.append({3, 0, 1, MemOp::kRead});
  RefTrace second;
  second.append({1, 0, 2, MemOp::kRead});
  CoherenceSim sim = make_wbi();
  sim.replay(first);
  sim.replay(second);
  EXPECT_EQ(sim.traffic().cold_fetch_bytes, 8u);  // proc 2's first read
  EXPECT_EQ(sim.traffic().refetch_bytes, 8u);     // and its second
  EXPECT_EQ(sim.traffic().read_flush_bytes, 8u);  // proc 1's read
}

TEST(Sweep, ReturnsOneResultPerLineSize) {
  RefTrace trace;
  for (std::uint32_t i = 0; i < 100; ++i) {
    trace.append({static_cast<SimTime>(i), (i * 4) % 256,
                  static_cast<std::int16_t>(i % 4),
                  i % 3 == 0 ? MemOp::kWrite : MemOp::kRead});
  }
  auto results = sweep_line_sizes(trace, 4, {4, 8, 16, 32});
  ASSERT_EQ(results.size(), 4u);
  for (const CoherenceTraffic& t : results) {
    EXPECT_GT(t.total_bytes(), 0u);
    EXPECT_EQ(t.accesses, 100u);
  }
}

TEST(TraceUtils, CountsByOp) {
  RefTrace trace;
  trace.append({1, 4, 1, MemOp::kRead});
  trace.append({3, 8, 2, MemOp::kRead});
  trace.append({5, 0, 0, MemOp::kWrite});
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.count(MemOp::kRead), 2u);
  EXPECT_EQ(trace.count(MemOp::kWrite), 1u);
}

TEST(FiniteCache, EvictsLruAndWritesBackDirty) {
  CoherenceParams params;
  params.line_size = 8;
  params.capacity_lines = 2;
  CoherenceSim sim(2, params);
  sim.access(0, 0, MemOp::kWrite);    // line 0, dirty
  sim.access(0, 8, MemOp::kRead);     // line 1
  std::uint64_t before = sim.traffic().eviction_writeback_bytes;
  sim.access(0, 16, MemOp::kRead);    // line 2: evicts line 0 (LRU, dirty)
  EXPECT_EQ(sim.traffic().capacity_evictions, 1u);
  EXPECT_EQ(sim.traffic().eviction_writeback_bytes, before + 8);
  // Re-reading line 0 is now a (capacity) refetch.
  std::uint64_t misses = sim.traffic().read_misses;
  sim.access(0, 0, MemOp::kRead);
  EXPECT_EQ(sim.traffic().read_misses, misses + 1);
}

TEST(FiniteCache, HitRefreshesLru) {
  CoherenceParams params;
  params.line_size = 8;
  params.capacity_lines = 2;
  CoherenceSim sim(2, params);
  sim.access(0, 0, MemOp::kRead);   // line 0
  sim.access(0, 8, MemOp::kRead);   // line 1
  sim.access(0, 0, MemOp::kRead);   // hit: line 0 becomes MRU
  sim.access(0, 16, MemOp::kRead);  // evicts line 1, not line 0
  std::uint64_t misses = sim.traffic().read_misses;
  sim.access(0, 0, MemOp::kRead);   // still resident
  EXPECT_EQ(sim.traffic().read_misses, misses);
}

TEST(FiniteCache, CleanEvictionCostsNothing) {
  CoherenceParams params;
  params.line_size = 8;
  params.capacity_lines = 1;
  CoherenceSim sim(2, params);
  sim.access(0, 0, MemOp::kRead);
  sim.access(0, 8, MemOp::kRead);  // evicts clean line 0
  EXPECT_EQ(sim.traffic().capacity_evictions, 1u);
  EXPECT_EQ(sim.traffic().eviction_writeback_bytes, 0u);
}

TEST(FiniteCache, CachesAreIndependentPerProcessor) {
  CoherenceParams params;
  params.line_size = 8;
  params.capacity_lines = 1;
  CoherenceSim sim(2, params);
  sim.access(0, 0, MemOp::kRead);
  sim.access(1, 8, MemOp::kRead);  // different proc: no eviction of proc 0
  EXPECT_EQ(sim.traffic().capacity_evictions, 0u);
  std::uint64_t misses = sim.traffic().read_misses;
  sim.access(0, 0, MemOp::kRead);  // still a hit for proc 0
  EXPECT_EQ(sim.traffic().read_misses, misses);
}

TEST(FiniteCache, LargeCapacityMatchesInfinite) {
  RefTrace trace;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    trace.append({static_cast<SimTime>(i),
                  static_cast<std::uint32_t>(rng.bounded(400)) * 4,
                  static_cast<std::int16_t>(rng.bounded(4)),
                  rng.chance(0.3) ? MemOp::kWrite : MemOp::kRead});
  }
  CoherenceParams infinite;
  infinite.line_size = 8;
  CoherenceParams finite = infinite;
  finite.capacity_lines = 100000;
  CoherenceSim a(4, infinite), b(4, finite);
  a.replay(trace);
  b.replay(trace);
  EXPECT_EQ(a.traffic().total_bytes(), b.traffic().total_bytes());
}

/// The eviction-versus-first-reader rule on one dirty line: the owner writes
/// line 0, then, before any other write, reads line 1 (evicting line 0 from
/// its one-line cache) while the other processor reads line 0. If the read
/// comes first it takes the owner's flush; if the eviction comes first the
/// owner writes the line back and the reader fetches it cold. Both processor
/// numberings run, so the write-interval walk visits the owner's stream first
/// in one and the reader's in the other.
TEST(FiniteCache, OwnerEvictionBeforeOrAfterFirstReader) {
  for (const std::int16_t owner : {0, 1}) {
    const auto reader = static_cast<std::int16_t>(1 - owner);
    for (const bool read_first : {true, false}) {
      RefTrace trace;
      trace.append({0, 0, owner, MemOp::kWrite});
      if (read_first) {
        trace.append({1, 0, reader, MemOp::kRead});
        trace.append({2, 8, owner, MemOp::kRead});
      } else {
        trace.append({1, 8, owner, MemOp::kRead});
        trace.append({2, 0, reader, MemOp::kRead});
      }
      CoherenceParams params;
      params.line_size = 8;
      params.capacity_lines = 1;
      CoherenceSim sim(2, params);
      sim.replay(trace);
      test::ReferenceCoherenceSim reference(2, params);
      reference.replay(trace);
      SCOPED_TRACE(::testing::Message() << "owner " << owner << " read first " << read_first);
      const CoherenceTraffic& t = sim.traffic();
      EXPECT_TRUE(t == reference.traffic());
      EXPECT_EQ(t.capacity_evictions, 1u);
      EXPECT_EQ(t.read_flush_bytes, read_first ? 8u : 0u);
      EXPECT_EQ(t.eviction_writeback_bytes, read_first ? 0u : 8u);
      EXPECT_EQ(t.cold_fetch_bytes, read_first ? 8u : 16u);  // the owner's line 1, the reader's line 0
    }
  }
}

/// MESI and Dragon have no finite-cache model: a replay in write intervals
/// would not be exact for them (DESIGN.md §7.6), so a capacity is rejected
/// when the simulator is built.
TEST(FiniteCache, MesiAndDragonRejectCapacity) {
  RefTrace trace;
  trace.append({0, 0, 0, MemOp::kRead});
  for (const ProtocolKind protocol : {ProtocolKind::kMesi, ProtocolKind::kDragon}) {
    CoherenceParams params;
    params.protocol = protocol;
    EXPECT_NO_THROW(CoherenceSim(4, params));
    params.capacity_lines = 3;
    EXPECT_THROW(CoherenceSim(4, params), std::invalid_argument);
    EXPECT_THROW(sweep_line_sizes(trace, 4, {8}, protocol, 3), std::invalid_argument);
  }
}

/// Property: on a false-sharing workload, WBI traffic is monotone
/// non-decreasing in line size (the paper's Table 3 direction).
class LineSizeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LineSizeProperty, FalseSharingGrowsWithLineSize) {
  RefTrace trace;
  std::uint64_t seed = GetParam();
  // Strided writers: proc p repeatedly updates cells p, p+4, p+8... with
  // stride 4 words = 16 bytes, so larger lines create false sharing.
  for (std::uint32_t i = 0; i < 2000; ++i) {
    auto proc = static_cast<std::int16_t>((i + seed) % 4);
    std::uint32_t addr = ((i * 7 + static_cast<std::uint32_t>(seed)) % 50) * 16 +
                         static_cast<std::uint32_t>(proc) * 4;
    trace.append({static_cast<SimTime>(i), addr, proc,
                  i % 2 == 0 ? MemOp::kRead : MemOp::kWrite});
  }
  auto results = sweep_line_sizes(trace, 4, {4, 8, 16, 32});
  EXPECT_LE(results[0].total_bytes(), results[1].total_bytes());
  EXPECT_LE(results[1].total_bytes(), results[2].total_bytes());
  EXPECT_LE(results[2].total_bytes(), results[3].total_bytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LineSizeProperty, ::testing::Values(0, 1, 2, 3));


constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::kWriteBackInvalidate, ProtocolKind::kWriteThrough,
    ProtocolKind::kMesi, ProtocolKind::kDragon};

/// The protocols CoherenceSim models with finite caches.
constexpr ProtocolKind kFiniteProtocols[] = {ProtocolKind::kWriteBackInvalidate,
                                             ProtocolKind::kWriteThrough};

bool has_finite_model(ProtocolKind protocol) {
  return std::find(std::begin(kFiniteProtocols), std::end(kFiniteProtocols), protocol) !=
         std::end(kFiniteProtocols);
}

/// Property: the single-pass sweep equals one CoherenceSim::replay per line
/// size — every traffic field, for every protocol with infinite caches and
/// every finite-cache protocol with 3-line caches — on seeded traces that
/// mix cost-array addresses with the loop
/// counter and other addresses above the dense line table's bound. Each
/// replay's lines_touched() equals the trace's distinct line count.
class FusedSweepProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FusedSweepProperty, EqualsSeparateReplayPerSize) {
  Rng rng(GetParam());
  const auto procs = static_cast<std::int32_t>(1 + rng.bounded(32));
  RefTrace trace;
  for (SimTime t = 0; t < 3000; ++t) {
    std::uint32_t addr = 0;
    switch (rng.bounded(8)) {
      case 0:
        addr = kLoopCounterAddr;
        break;
      case 1:
        addr = CoherenceSim::kDenseAddrBound +
               static_cast<std::uint32_t>(rng.bounded(64)) * 4;
        break;
      default:
        addr = static_cast<std::uint32_t>(rng.bounded(600)) * 4;
        break;
    }
    const auto proc =
        static_cast<std::int16_t>(rng.bounded(static_cast<std::uint64_t>(procs)));
    trace.append({t, addr, proc, rng.chance(0.3) ? MemOp::kWrite : MemOp::kRead});
  }
  const std::vector<std::int32_t> sizes = {4, 8, 16, 32};
  for (ProtocolKind protocol : kAllProtocols) {
    for (std::int32_t capacity : {0, 3}) {
      if (capacity > 0 && !has_finite_model(protocol)) continue;
      const std::vector<CoherenceTraffic> fused =
          sweep_line_sizes(trace, procs, sizes, protocol, capacity);
      ASSERT_EQ(fused.size(), sizes.size());
      for (std::size_t k = 0; k < sizes.size(); ++k) {
        CoherenceParams params;
        params.line_size = sizes[k];
        params.protocol = protocol;
        params.capacity_lines = capacity;
        CoherenceSim sim(procs, params);
        sim.replay(trace);
        SCOPED_TRACE(::testing::Message() << "protocol " << static_cast<int>(protocol)
                                          << " capacity " << capacity << " line "
                                          << sizes[k]);
        EXPECT_TRUE(fused[k] == sim.traffic());
        EXPECT_EQ(fused[k].total_bytes(), sim.traffic().total_bytes());
        std::set<std::uint32_t> lines;
        for (std::size_t p = 0; p < trace.streams(); ++p) {
          trace.for_each_entry(p, [&](const RefTrace::Entry& e) {
            lines.insert(e.addr / static_cast<std::uint32_t>(sizes[k]));
          });
        }
        EXPECT_EQ(sim.lines_touched(), lines.size());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedSweepProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

/// Checks sweep_line_sizes() at every size of `sizes`, and replay() at each
/// size of `replay_sizes`, against the switch-per-access ReferenceCoherenceSim, field by
/// field, for every protocol with infinite caches and every finite-cache
/// protocol with 3-line caches.
void expect_matches_reference(const RefTrace& trace, std::int32_t procs,
                              const std::vector<std::int32_t>& sizes,
                              const std::vector<std::int32_t>& replay_sizes) {
  for (ProtocolKind protocol : kAllProtocols) {
    for (std::int32_t capacity : {0, 3}) {
      if (capacity > 0 && !has_finite_model(protocol)) continue;
      const std::vector<CoherenceTraffic> swept =
          sweep_line_sizes(trace, procs, sizes, protocol, capacity);
      ASSERT_EQ(swept.size(), sizes.size());
      for (std::size_t k = 0; k < sizes.size(); ++k) {
        CoherenceParams params;
        params.line_size = sizes[k];
        params.protocol = protocol;
        params.capacity_lines = capacity;
        test::ReferenceCoherenceSim reference(procs, params);
        reference.replay(trace);
        SCOPED_TRACE(::testing::Message() << "protocol " << static_cast<int>(protocol)
                                          << " capacity " << capacity << " line "
                                          << sizes[k]);
        EXPECT_TRUE(swept[k] == reference.traffic());
        EXPECT_EQ(swept[k].total_bytes(), reference.traffic().total_bytes());
        if (std::find(replay_sizes.begin(), replay_sizes.end(), sizes[k]) !=
            replay_sizes.end()) {
          CoherenceSim sim(procs, params);
          sim.replay(trace);
          EXPECT_TRUE(sim.traffic() == reference.traffic());
        }
      }
    }
  }
}

/// Seeded traces over cost-array words, odd byte addresses, the loop
/// counter and addresses above the dense table's bound, from up to 32
/// processors. Beside the paper's four sizes, the sweep's hit filter (keyed
/// by the smallest size in the list, cleared across the widest) meets an
/// unsorted list, a widest line spanning a thousand of the smallest, and a
/// widest line above kDenseAddrBound.
class ReferenceCoherenceSimSeeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReferenceCoherenceSimSeeded, ReplayAndSweepMatchReference) {
  Rng rng(GetParam() ^ 0xC0DEu);
  const auto procs = static_cast<std::int32_t>(1 + rng.bounded(32));
  RefTrace trace;
  for (SimTime t = 0; t < 4000; ++t) {
    std::uint32_t addr = 0;
    switch (rng.bounded(10)) {
      case 0:
        addr = kLoopCounterAddr;
        break;
      case 1:
        addr = CoherenceSim::kDenseAddrBound +
               static_cast<std::uint32_t>(rng.bounded(64)) * 4;
        break;
      case 2:
        addr = static_cast<std::uint32_t>(rng.bounded(2400));  // any byte
        break;
      default:
        addr = static_cast<std::uint32_t>(rng.bounded(600)) * 4;
        break;
    }
    const auto proc =
        static_cast<std::int16_t>(rng.bounded(static_cast<std::uint64_t>(procs)));
    trace.append({t, addr, proc, rng.chance(0.3) ? MemOp::kWrite : MemOp::kRead});
  }
  expect_matches_reference(trace, procs, {4, 8, 16, 32}, {4, 8, 16, 32});
  expect_matches_reference(trace, procs, {32, 4, 16}, {});
  expect_matches_reference(trace, procs, {4, 4096}, {4096});
  expect_matches_reference(trace, procs, {1 << 25, 4}, {1 << 25});
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceCoherenceSimSeeded,
                         ::testing::Range<std::uint64_t>(0, 6));

/// The sweep's hit filter skips a read only if it hits at every size. P's
/// re-read of word 0 after Q writes the word 4 B away is a hit at 4 B and,
/// under the invalidate protocols, a miss at every wider line, which all hold
/// both words: a refetch, or the writer's flush where it kept the line dirty.
TEST(HitFilter, ForeignWriteInWidestLineForcesMiss) {
  RefTrace trace;
  trace.append({0, 0, 0, MemOp::kRead});
  trace.append({1, 4, 1, MemOp::kWrite});
  trace.append({2, 0, 0, MemOp::kRead});
  const std::vector<std::int32_t> sizes = {4, 8, 16, 32};
  expect_matches_reference(trace, 2, sizes, sizes);
  for (ProtocolKind protocol :
       {ProtocolKind::kWriteBackInvalidate, ProtocolKind::kWriteThrough, ProtocolKind::kMesi}) {
    const std::vector<CoherenceTraffic> swept = sweep_line_sizes(trace, 2, sizes, protocol);
    SCOPED_TRACE(::testing::Message() << "protocol " << static_cast<int>(protocol));
    EXPECT_EQ(swept[0].read_misses, 1u);
    EXPECT_EQ(swept[0].refetch_bytes + swept[0].read_flush_bytes, 0u);
    for (std::size_t k = 1; k < sizes.size(); ++k) {
      EXPECT_EQ(swept[k].read_misses, 2u);
      EXPECT_EQ(swept[k].refetch_bytes + swept[k].read_flush_bytes,
                static_cast<std::uint64_t>(sizes[k]));
    }
  }
}

/// Property: the write-interval replay of infinite caches (sweep_line_sizes
/// and replay) equals the reference's replay in global order, in every
/// traffic field and in lines_touched(), for all four protocols at every
/// line size. The traces (test::make_overlapping_trace) come from up to 32
/// processors whose multi-reference blocks overlap in time, with duration-0
/// and equal-stamp blocks, so many readers of a dirty line meet between two
/// writes in an order the stream-by-stream visit does not follow.
class IntervalReplayProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalReplayProperty, EqualsMergedReference) {
  Rng rng(GetParam() ^ 0x1A7Eu);
  const auto procs = static_cast<std::int32_t>(1 + rng.bounded(32));
  const RefTrace trace = test::make_overlapping_trace(rng, procs, 600);
  const std::vector<std::int32_t> sizes = {4, 8, 16, 32};
  for (ProtocolKind protocol : kAllProtocols) {
    const std::vector<CoherenceTraffic> swept = sweep_line_sizes(trace, procs, sizes, protocol);
    ASSERT_EQ(swept.size(), sizes.size());
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      CoherenceParams params;
      params.line_size = sizes[k];
      params.protocol = protocol;
      test::ReferenceCoherenceSim reference(procs, params);
      reference.replay(trace);
      CoherenceSim sim(procs, params);
      sim.replay(trace);
      SCOPED_TRACE(::testing::Message() << "procs " << procs << " protocol "
                                        << static_cast<int>(protocol) << " line " << sizes[k]);
      EXPECT_TRUE(swept[k] == reference.traffic());
      EXPECT_TRUE(sim.traffic() == reference.traffic());
      EXPECT_EQ(sim.traffic().total_bytes(), reference.traffic().total_bytes());
      EXPECT_EQ(sim.lines_touched(), reference.lines_touched());
    }
  }
}

/// Finite caches replay on the same walk, every read reaching every
/// simulator: for capacities of 1 to 64 lines under write-back-invalidate
/// and write-through, the sweep and single-size replays equal the
/// reference's replay in global order in every traffic field and in
/// lines_touched(). Small caches evict dirty lines between two writes while
/// other processors read them, in both orders of the walk's visit.
TEST_P(IntervalReplayProperty, FiniteCachesEqualMergedReference) {
  Rng rng(GetParam() ^ 0xF1C4u);
  const auto procs = static_cast<std::int32_t>(1 + rng.bounded(32));
  const RefTrace trace = test::make_overlapping_trace(rng, procs, 600);
  const std::vector<std::int32_t> sizes = {4, 8, 16, 32};
  for (ProtocolKind protocol : kFiniteProtocols) {
    for (std::int32_t capacity : {1, 2, 3, 8, 64}) {
      const std::vector<CoherenceTraffic> swept =
          sweep_line_sizes(trace, procs, sizes, protocol, capacity);
      ASSERT_EQ(swept.size(), sizes.size());
      for (std::size_t k = 0; k < sizes.size(); ++k) {
        CoherenceParams params;
        params.line_size = sizes[k];
        params.protocol = protocol;
        params.capacity_lines = capacity;
        test::ReferenceCoherenceSim reference(procs, params);
        reference.replay(trace);
        CoherenceSim sim(procs, params);
        sim.replay(trace);
        SCOPED_TRACE(::testing::Message() << "procs " << procs << " protocol "
                                          << static_cast<int>(protocol) << " capacity "
                                          << capacity << " line " << sizes[k]);
        EXPECT_TRUE(swept[k] == reference.traffic());
        EXPECT_TRUE(sim.traffic() == reference.traffic());
        EXPECT_EQ(sim.lines_touched(), reference.lines_touched());
      }
    }
  }
}

/// Each replay starts with an empty hit filter: a simulator replayed twice
/// equals the reference fed both traces in turn.
TEST_P(IntervalReplayProperty, SecondReplayMatchesReference) {
  Rng rng(GetParam() ^ 0x2EF1u);
  const auto procs = static_cast<std::int32_t>(1 + rng.bounded(32));
  const RefTrace first = test::make_overlapping_trace(rng, procs, 300);
  const RefTrace second = test::make_overlapping_trace(rng, procs, 300);
  for (ProtocolKind protocol : kAllProtocols) {
    for (std::int32_t line : {4, 32}) {
      CoherenceParams params;
      params.line_size = line;
      params.protocol = protocol;
      test::ReferenceCoherenceSim reference(procs, params);
      reference.replay(first);
      reference.replay(second);
      CoherenceSim sim(procs, params);
      sim.replay(first);
      sim.replay(second);
      SCOPED_TRACE(::testing::Message() << "protocol " << static_cast<int>(protocol)
                                        << " line " << line);
      EXPECT_TRUE(sim.traffic() == reference.traffic());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalReplayProperty,
                         ::testing::Range<std::uint64_t>(0, 16));

/// The 60-wire bnrE shm trace (16 processors, dynamic loop; the trace
/// Bnre60Dynamic pins): a two-size sweep and an 8-byte replay match the
/// reference on real routing traffic. Two sizes keep the sanitizer run
/// short; the seeded traces cover all four.
TEST(ReferenceCoherenceSim, MatchesOnBnre60ShmTrace) {
  ShmConfig config;
  config.procs = 16;
  const RefTrace trace = run_shared_memory(test::make_bnre60(), config).trace;
  ASSERT_GT(trace.size(), 1'000'000u);
  expect_matches_reference(trace, config.procs, {8, 32}, {8});
}

}  // namespace
}  // namespace locus
