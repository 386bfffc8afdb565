// Tests for RefTrace (src/shm/trace.hpp): chunked stream storage, the key
// order, the block split and the write-interval walk, each held to the
// merged-order reference test::trace_refs.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <tuple>
#include <vector>

#include "shm/trace.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace locus {
namespace {

/// Seeded block layouts that keep the executor's invariant (each processor's
/// next block starts no earlier than its previous one ended, blocks issued
/// least-clock-first): ordered visitation must equal a stable sort by time of
/// the references in emission order, and the unordered views must agree.
TEST(RefTrace, VisitationEqualsStableSortOfEmissionOrder) {
  Rng rng(0x5EED);
  for (int trial = 0; trial < 200; ++trial) {
    const auto procs = static_cast<std::int16_t>(1 + rng.bounded(6));
    std::vector<SimTime> clock(static_cast<std::size_t>(procs));
    for (SimTime& c : clock) c = static_cast<SimTime>(rng.bounded(4));
    RefTrace trace;
    std::vector<MemRef> emitted;
    std::uint64_t writes = 0;
    const auto blocks = rng.bounded(40);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      // Least clock next, or any processor at random: both keep each stream
      // nondecreasing, and the random pick mixes equal-time ties across
      // streams in non-clock order.
      auto proc = static_cast<std::int16_t>(rng.bounded(clock.size()));
      if (rng.chance(0.5)) {
        proc = static_cast<std::int16_t>(std::min_element(clock.begin(), clock.end()) -
                                         clock.begin());
      }
      SimTime& t0 = clock[static_cast<std::size_t>(proc)];
      // Durations of 0 and short ones give equal stamps within and across
      // blocks.
      const auto duration = static_cast<SimTime>(rng.bounded(3) == 0 ? 0 : rng.bounded(12));
      std::vector<RefTrace::Entry> entries(rng.bounded(7));
      for (RefTrace::Entry& e : entries) {
        e.addr = static_cast<std::uint32_t>(rng.bounded(64)) * 4u;
        e.op = rng.chance(0.3) ? MemOp::kWrite : MemOp::kRead;
      }
      trace.open_block(proc);
      for (const RefTrace::Entry& e : entries) trace.push(e.addr, e.op);
      trace.close_block(t0, duration);
      const auto n = static_cast<SimTime>(entries.size());
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const SimTime t = t0 + duration * static_cast<SimTime>(i + 1) / (n + 1);
        emitted.push_back(MemRef{t, entries[i].addr, proc, entries[i].op});
        if (entries[i].op == MemOp::kWrite) ++writes;
      }
      t0 += duration + static_cast<SimTime>(rng.bounded(3));
    }
    std::stable_sort(emitted.begin(), emitted.end(),
                     [](const MemRef& a, const MemRef& b) { return a.time < b.time; });

    const std::vector<MemRef> visited = test::trace_refs(trace);
    ASSERT_EQ(visited.size(), emitted.size()) << "trial " << trial;
    ASSERT_EQ(trace.size(), emitted.size()) << "trial " << trial;
    for (std::size_t i = 0; i < emitted.size(); ++i) {
      ASSERT_EQ(visited[i].time, emitted[i].time) << "trial " << trial << " i=" << i;
      ASSERT_EQ(visited[i].addr, emitted[i].addr) << "trial " << trial << " i=" << i;
      ASSERT_EQ(visited[i].proc, emitted[i].proc) << "trial " << trial << " i=" << i;
      ASSERT_EQ(visited[i].op, emitted[i].op) << "trial " << trial << " i=" << i;
    }
    EXPECT_EQ(trace.count(MemOp::kWrite), writes) << "trial " << trial;
    std::size_t per_stream = 0;
    for (std::size_t p = 0; p < trace.streams(); ++p) {
      trace.for_each_entry(p, [&](const RefTrace::Entry&) { ++per_stream; });
    }
    EXPECT_EQ(per_stream, emitted.size()) << "trial " << trial;
  }
}

/// Streams several chunks long, with blocks that straddle chunk boundaries
/// (one block alone is longer than a chunk): every 32-bit address — odd ones
/// and 0xFFFFFFFF included — and both ops must come back exactly, ordered
/// visitation must equal a stable sort of the emission order, per-stream
/// visitation must equal each processor's emission order, and count() must
/// agree.
TEST(RefTraceChunks, StreamsSpanningChunksStayExact) {
  constexpr std::size_t kChunk = RefTrace::kChunkRefs;
  Rng rng(0xC4u);
  constexpr std::int16_t kProcs = 3;
  std::vector<SimTime> clock(kProcs, 0);
  RefTrace trace;
  std::vector<MemRef> emitted;
  std::vector<std::vector<RefTrace::Entry>> per_proc(kProcs);
  std::uint64_t writes = 0;
  const std::uint32_t specials[] = {0xFFFFFFFFu, 0xFFFFFFFEu, 0u, 1u, 3u,
                                    kLoopCounterAddr, 0x7FFFFFFFu};
  // Block lengths: one longer than a chunk, then a mix of lengths that
  // lands block edges on both sides of every chunk boundary.
  std::vector<std::size_t> lengths = {kChunk + 5};
  for (int i = 0; i < 40; ++i) lengths.push_back(1 + rng.bounded(2 * kChunk / 5));
  lengths.push_back(1);
  for (std::size_t n : lengths) {
    const auto proc = static_cast<std::int16_t>(
        std::min_element(clock.begin(), clock.end()) - clock.begin());
    const SimTime t0 = clock[static_cast<std::size_t>(proc)];
    const auto duration = static_cast<SimTime>(rng.bounded(3 * n));
    trace.open_block(proc);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t addr =
          rng.chance(0.01) ? specials[rng.bounded(std::size(specials))]
                           : static_cast<std::uint32_t>(rng.next());
      const MemOp op = rng.chance(0.4) ? MemOp::kWrite : MemOp::kRead;
      trace.push(addr, op);
      const SimTime t = t0 + duration * static_cast<SimTime>(i + 1) /
                                 (static_cast<SimTime>(n) + 1);
      emitted.push_back(MemRef{t, addr, proc, op});
      per_proc[static_cast<std::size_t>(proc)].push_back(RefTrace::Entry{addr, op});
      if (op == MemOp::kWrite) ++writes;
    }
    trace.close_block(t0, duration);
    clock[static_cast<std::size_t>(proc)] = t0 + duration + static_cast<SimTime>(rng.bounded(2));
  }
  for (const auto& entries : per_proc) ASSERT_GT(entries.size(), 2 * kChunk);
  std::stable_sort(emitted.begin(), emitted.end(),
                   [](const MemRef& a, const MemRef& b) { return a.time < b.time; });

  const std::vector<MemRef> visited = test::trace_refs(trace);
  ASSERT_EQ(trace.size(), emitted.size());
  ASSERT_EQ(visited.size(), emitted.size());
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    ASSERT_EQ(visited[i].time, emitted[i].time) << "i=" << i;
    ASSERT_EQ(visited[i].addr, emitted[i].addr) << "i=" << i;
    ASSERT_EQ(visited[i].proc, emitted[i].proc) << "i=" << i;
    ASSERT_EQ(visited[i].op, emitted[i].op) << "i=" << i;
  }
  EXPECT_EQ(trace.count(MemOp::kWrite), writes);
  EXPECT_EQ(trace.count(MemOp::kRead), emitted.size() - writes);

  ASSERT_EQ(trace.streams(), static_cast<std::size_t>(kProcs));
  for (std::size_t p = 0; p < trace.streams(); ++p) {
    std::size_t k = 0;
    trace.for_each_entry(p, [&](const RefTrace::Entry& e) {
      ASSERT_LT(k, per_proc[p].size());
      EXPECT_EQ(e.addr, per_proc[p][k].addr) << "proc " << p << " k=" << k;
      EXPECT_EQ(e.op, per_proc[p][k].op) << "proc " << p << " k=" << k;
      ++k;
    });
    EXPECT_EQ(k, per_proc[p].size());
  }
}

/// push_read_run against the same references pushed one at a time, on two
/// traces built in lockstep. The runs start mid-word after writes and are
/// followed by writes in the same 64-bit op word; start on a word boundary
/// over a fresh chunk's uninitialised words; start at kChunkRefs - 3 and
/// cross into a new chunk; step by negative strides, wrapping below address
/// 0; and hold one reference or none. Addresses, ops, count(kWrite) and the
/// merged order must agree.
TEST(RefTraceChunks, ReadRunsEqualPerReferencePushes) {
  constexpr std::size_t kChunk = RefTrace::kChunkRefs;
  RefTrace runs;
  RefTrace pushes;
  std::vector<std::size_t> pushed(2, 0);  // references per stream so far
  std::int16_t proc = 0;
  std::uint64_t writes = 0;
  const auto write = [&](std::uint32_t addr) {
    runs.push(addr, MemOp::kWrite);
    pushes.push(addr, MemOp::kWrite);
    ++pushed[static_cast<std::size_t>(proc)];
    ++writes;
  };
  const auto run = [&](std::uint32_t addr, std::int32_t stride, std::size_t n) {
    runs.push_read_run(addr, stride, n);
    for (std::size_t j = 0; j < n; ++j) {
      pushes.push(addr + static_cast<std::uint32_t>(j) * static_cast<std::uint32_t>(stride),
                  MemOp::kRead);
    }
    pushed[static_cast<std::size_t>(proc)] += n;
  };
  const auto open = [&](std::int16_t p) {
    proc = p;
    runs.open_block(p);
    pushes.open_block(p);
  };
  const auto close = [&](SimTime t0, SimTime duration) {
    runs.close_block(t0, duration);
    pushes.close_block(t0, duration);
  };

  open(0);
  for (std::uint32_t i = 0; i < 5; ++i) write(0x100 + 4 * i);
  run(100, 4, 10);     // mid-word, after writes
  write(0x200);        // same word as the run
  run(4000, -40, 70);  // crosses the word at 64
  write(0x300);
  run(7, 1, 128 - pushed[0]);  // ends on a word boundary
  run(0x8000, 400, 200);       // starts on one
  close(0, 1000);

  open(1);
  run(0, 0, 1);
  write(0);
  run(0xFFFFFFF0u, 8, 5);  // wraps above the top address
  run(12, -4, 9);          // wraps below address 0
  run(1, 1, 0);            // empty
  close(10, 50);

  open(0);
  run(0x40000, 4, kChunk - 3 - pushed[0]);  // fills up to kChunkRefs - 3
  ASSERT_EQ(pushed[0], kChunk - 3);
  run(8, -4, 10);  // crosses into a new chunk, wrapping below 0
  write(0x400);    // same word as the run's tail
  run(44, -44, 1);
  write(0x500);
  close(1000, 5000);

  ASSERT_EQ(runs.size(), pushes.size());
  ASSERT_EQ(runs.size(), pushed[0] + pushed[1]);
  EXPECT_EQ(runs.count(MemOp::kWrite), writes);
  EXPECT_EQ(pushes.count(MemOp::kWrite), writes);
  EXPECT_EQ(runs.count(MemOp::kRead), runs.size() - writes);

  const std::vector<MemRef> got = test::trace_refs(runs);
  const std::vector<MemRef> want = test::trace_refs(pushes);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].time, want[i].time) << "i=" << i;
    ASSERT_EQ(got[i].addr, want[i].addr) << "i=" << i;
    ASSERT_EQ(got[i].proc, want[i].proc) << "i=" << i;
    ASSERT_EQ(got[i].op, want[i].op) << "i=" << i;
  }
  for (std::size_t p = 0; p < 2; ++p) {
    std::vector<RefTrace::Entry> a, b;
    runs.for_each_entry(p, [&](const RefTrace::Entry& e) { a.push_back(e); });
    pushes.for_each_entry(p, [&](const RefTrace::Entry& e) { b.push_back(e); });
    ASSERT_EQ(a.size(), pushed[p]);
    ASSERT_EQ(b.size(), pushed[p]);
    for (std::size_t k = 0; k < a.size(); ++k) {
      ASSERT_EQ(a[k].addr, b[k].addr) << "proc " << p << " k=" << k;
      ASSERT_EQ(a[k].op, b[k].op) << "proc " << p << " k=" << k;
    }
  }
}

TEST(RefTrace, AppendVisitsInAppendOrder) {
  RefTrace trace;
  const std::vector<MemRef> refs = {{3, 8, 2, MemOp::kRead},
                                    {3, 4, 0, MemOp::kWrite},
                                    {3, 0, 2, MemOp::kWrite},
                                    {7, 12, 1, MemOp::kRead}};
  for (const MemRef& r : refs) trace.append(r);
  EXPECT_EQ(trace.streams(), 3u);
  const std::vector<MemRef> visited = test::trace_refs(trace);
  ASSERT_EQ(visited.size(), refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(visited[i].proc, refs[i].proc);
    EXPECT_EQ(visited[i].addr, refs[i].addr);
  }
}

/// The number of b's references whose key is below k, by a linear scan of
/// stamp(): the definition RefTrace::refs_before() inverts.
std::uint32_t scanned_refs_before(const RefTrace::Block& b, const RefTrace::Key& k) {
  std::uint32_t count = 0;
  for (std::uint32_t i = 0; i < b.n; ++i) {
    if (RefTrace::Key{RefTrace::stamp(b, i), b.seq, i} < k) ++count;
  }
  return count;
}

/// refs_before() against the linear scan on seeded blocks of duration 0,
/// of durations below n (runs of equal stamps) and longer ones. Keys from
/// another block take every time from before t0 to past the block's end,
/// t0 itself included, with a lower and a higher seq, so equal times across
/// streams resolve by seq; keys inside the block are each of its references.
TEST(RefTraceSplit, EqualsLinearScanOfStamps) {
  Rng rng(0x5B117u);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.bounded(12));
    SimTime duration = 0;
    switch (trial % 3) {
      case 0:
        break;
      case 1:
        duration = static_cast<SimTime>(rng.bounded(n));
        break;
      default:
        duration = static_cast<SimTime>(rng.bounded(5 * n + 5));
        break;
    }
    const RefTrace::Block b{static_cast<SimTime>(rng.bounded(20)) - 10, duration, n, 5};
    for (SimTime t = b.t0 - 2; t <= b.t0 + duration + 2; ++t) {
      for (const std::uint64_t seq : {4u, 6u}) {
        const RefTrace::Key k{t, seq, 0};
        ASSERT_EQ(RefTrace::refs_before(b, k), scanned_refs_before(b, k))
            << "trial " << trial << " t=" << t << " seq=" << seq;
      }
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const RefTrace::Key k{RefTrace::stamp(b, i), b.seq, i};
      ASSERT_EQ(RefTrace::refs_before(b, k), i) << "trial " << trial;
      ASSERT_EQ(scanned_refs_before(b, k), i) << "trial " << trial;
    }
  }
}

/// Blocks whose stamps fit in SimTime but where (T − t0)·(n+1) does not:
/// one long block where it passes 2^63 inside the block, and one starting
/// far below zero where T − t0 itself passes 2^63 and the product 2^64.
TEST(RefTraceSplit, ProductsBeyond64BitsStayExact) {
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
  // One reference stamped at duration/2: (T − t0)·2 passes 2^63 near the end.
  const SimTime big = (SimTime{1} << 62) + 12345;
  const RefTrace::Block one{0, big, 1, 5};
  // A block starting far below zero: T − t0 passes 2^63 for large T.
  const RefTrace::Block low{-(SimTime{1} << 62), SimTime{1} << 52, 1000, 5};
  for (const RefTrace::Block& b : {one, low}) {
    const SimTime first = RefTrace::stamp(b, 0);
    const SimTime last = RefTrace::stamp(b, b.n - 1);
    for (const SimTime t : {kMin, b.t0, first - 1, first, first + 1, last - 1, last,
                            last + 1, b.t0 + b.duration - 1, b.t0 + b.duration, kMax}) {
      for (const std::uint64_t seq : {4u, 6u}) {
        const RefTrace::Key k{t, seq, 0};
        EXPECT_EQ(RefTrace::refs_before(b, k), scanned_refs_before(b, k))
            << "t0=" << b.t0 << " t=" << t << " seq=" << seq;
      }
    }
  }
}

/// for_each_write_interval() on seeded overlapping traces: the writes come in
/// the merged order (test::trace_refs) with their keys, every read comes once and after
/// exactly the writes that precede it in that order, and the reads between
/// two writes come stream by stream, each stream in its own order.
TEST(RefTrace, WriteIntervalsFollowMergedOrder) {
  struct Visit {
    std::size_t proc;
    std::uint32_t addr;
    MemOp op;
    SimTime time;
    std::uint64_t interval;  ///< writes visited before this reference
    bool operator==(const Visit&) const = default;
  };
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed);
    const auto procs = static_cast<std::int32_t>(1 + rng.bounded(8));
    const RefTrace trace = test::make_overlapping_trace(rng, procs, 150);
    std::vector<Visit> want;
    std::uint64_t interval = 0;
    for (const MemRef& r : test::trace_refs(trace)) {
      want.push_back(Visit{static_cast<std::size_t>(r.proc), r.addr, r.op, r.time, interval});
      if (r.op == MemOp::kWrite) ++interval;
    }
    std::stable_sort(want.begin(), want.end(), [](const Visit& a, const Visit& b) {
      const auto rank = [](const Visit& v) {
        return std::tuple(v.interval, v.op == MemOp::kWrite, v.proc);
      };
      return rank(a) < rank(b);
    });

    std::vector<Visit> got;
    interval = 0;
    std::optional<RefTrace::Key> previous;
    trace.for_each_write_interval(
        [&](std::size_t proc, std::span<const std::uint32_t> addrs, RefTrace::Position at) {
          for (std::uint32_t j = 0; j < addrs.size(); ++j) {
            const RefTrace::Position read{at.block, at.i + j};
            got.push_back(Visit{proc, addrs[j], MemOp::kRead, read.key().time, interval});
          }
        },
        [&](std::size_t proc, std::uint32_t addr, const RefTrace::Key& key) {
          if (previous) {
            EXPECT_LT(*previous, key) << "seed " << seed;
          }
          previous = key;
          got.push_back(Visit{proc, addr, MemOp::kWrite, key.time, interval++});
        });
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(got[i] == want[i]) << "seed " << seed << " i=" << i;
    }
  }
}

TEST(RefTraceDeathTest, AppendRejectsTimeGoingBackwards) {
  RefTrace trace;
  trace.append({10, 0, 0, MemOp::kRead});
  EXPECT_DEATH(trace.append({9, 4, 1, MemOp::kRead}), "time goes backwards");
}

/// A stream's next block may not start before its last stamp.
TEST(RefTraceDeathTest, AppendBlockRejectsStreamGoingBackwards) {
  RefTrace trace;
  trace.open_block(0);
  trace.push(0, MemOp::kRead);
  trace.close_block(100, 10);
  trace.open_block(0);
  trace.push(0, MemOp::kRead);
  EXPECT_DEATH(trace.close_block(50, 10), "time goes backwards");
}

}  // namespace
}  // namespace locus
