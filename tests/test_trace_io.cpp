// Tests for the binary .trc trace format.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/generator.hpp"
#include "shm/shm_router.hpp"
#include "shm/trace_io.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace locus {
namespace {

RefTrace sample_trace() {
  RefTrace t;
  t.append({-5, 0xFFFFFFFFu, 15, MemOp::kRead});  // extreme values survive
  t.append({0, 0, 0, MemOp::kRead});
  t.append({1000, 40, 0x7FFF, MemOp::kWrite});
  t.append({1LL << 60, kLoopCounterAddr, 0, MemOp::kWrite});
  return t;
}

std::string serialized(const RefTrace& trace) {
  std::stringstream buf;
  write_trace(buf, trace);
  return buf.str();
}

/// .trc bytes for `refs` exactly as given, encoded here rather than through
/// write_trace so a test can hand the reader records RefTrace cannot hold
/// (time going backwards).
std::string encode_trc(const std::vector<MemRef>& refs) {
  std::string out = "LTRC";
  auto put = [&out](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  put(1, 4);
  put(refs.size(), 8);
  for (const MemRef& r : refs) {
    put(static_cast<std::uint64_t>(r.time), 8);
    put(r.addr, 4);
    put(static_cast<std::uint16_t>(r.proc), 2);
    put(static_cast<std::uint8_t>(r.op), 1);
    put(0, 1);
  }
  return out;
}

/// Byte offset of record `i`'s field at `field_offset` (16-byte header,
/// 16-byte records: time 0, addr 8, proc 12, op 14).
std::size_t record_byte(std::size_t i, std::size_t field_offset) {
  return 16 + 16 * i + field_offset;
}

TEST(TraceIo, RoundTripsAllFields) {
  RefTrace original = sample_trace();
  std::stringstream buf;
  write_trace(buf, original);
  RefTrace parsed = read_trace(buf);
  ASSERT_EQ(parsed.size(), original.size());
  const std::vector<MemRef> got = test::trace_refs(parsed);
  const std::vector<MemRef> want = test::trace_refs(original);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time);
    EXPECT_EQ(got[i].addr, want[i].addr);
    EXPECT_EQ(got[i].proc, want[i].proc);
    EXPECT_EQ(got[i].op, want[i].op);
  }
  EXPECT_EQ(serialized(parsed), serialized(original));
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::stringstream buf;
  write_trace(buf, RefTrace{});
  EXPECT_EQ(read_trace(buf).size(), 0u);
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream buf("NOPE00000000");
  EXPECT_THROW(read_trace(buf), std::runtime_error);
}

TEST(TraceIo, RejectsBadVersion) {
  std::stringstream buf;
  buf.write("LTRC", 4);
  const char version[4] = {9, 0, 0, 0};
  buf.write(version, 4);
  const char count[8] = {0};
  buf.write(count, 8);
  EXPECT_THROW(read_trace(buf), std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedFile) {
  RefTrace original = sample_trace();
  std::stringstream buf;
  write_trace(buf, original);
  std::string data = buf.str();
  std::stringstream cut(data.substr(0, data.size() - 7));
  EXPECT_THROW(read_trace(cut), std::runtime_error);
}

TEST(TraceIo, FileRoundTripOfRealTrace) {
  ShmConfig config;
  config.procs = 4;
  RefTrace trace = run_shared_memory(make_tiny_test_circuit(), config).trace;
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.trc";
  write_trace_file(path, trace);
  RefTrace parsed = read_trace_file(path);
  ASSERT_EQ(parsed.size(), trace.size());
  EXPECT_EQ(parsed.count(MemOp::kWrite), trace.count(MemOp::kWrite));
  // Spot-check first/last records.
  const std::vector<MemRef> got = test::trace_refs(parsed);
  const std::vector<MemRef> want = test::trace_refs(trace);
  EXPECT_EQ(got.front().addr, want.front().addr);
  EXPECT_EQ(got.back().time, want.back().time);
}

TEST(TraceIo, RejectsNegativeProc) {
  std::string data = serialized(sample_trace());
  data[record_byte(1, 13)] = static_cast<char>(0x80);  // proc high byte
  std::stringstream buf(data);
  EXPECT_THROW(read_trace(buf), std::runtime_error);
}

TEST(TraceIo, RejectsTimeGoingBackwards) {
  std::stringstream buf(encode_trc({{10, 0, 0, MemOp::kRead}, {9, 4, 1, MemOp::kRead}}));
  EXPECT_THROW(read_trace(buf), std::runtime_error);
}

TEST(TraceIo, AcceptsEqualTimestamps) {
  RefTrace trace;
  trace.append({10, 0, 0, MemOp::kRead});
  trace.append({10, 4, 1, MemOp::kWrite});
  std::stringstream buf(serialized(trace));
  EXPECT_EQ(read_trace(buf).size(), 2u);
}

/// Seeded mutation fuzz: byte flips and truncations of a real trace either
/// parse into a trace that keeps the reader's guarantees (procs >= 0, time
/// never going backwards) or throw std::runtime_error — never anything else.
TEST(TraceIoFuzz, MutatedInputParsesOrThrows) {
  ShmConfig config;
  config.procs = 4;
  std::vector<MemRef> base =
      test::trace_refs(run_shared_memory(make_tiny_test_circuit(), config).trace);
  base.resize(64);
  const std::string clean = encode_trc(base);

  Rng rng(0x7EC0);
  int parsed = 0;
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string data = clean;
    if (rng.chance(0.25)) {
      data.resize(rng.bounded(data.size()));
    } else {
      const auto flips = 1 + rng.bounded(4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        data[rng.bounded(data.size())] ^= static_cast<char>(1u << rng.bounded(8));
      }
    }
    std::stringstream buf(data);
    try {
      const RefTrace trace = read_trace(buf);
      ++parsed;
      SimTime last = std::numeric_limits<SimTime>::min();
      for (const MemRef& r : test::trace_refs(trace)) {
        ASSERT_GE(r.proc, 0);
        ASSERT_GE(r.time, last);
        last = r.time;
      }
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/x.trc"), std::runtime_error);
}

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
      trace.append_block(proc, t0, duration, entries);
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
    for (std::size_t p = 0; p < trace.streams(); ++p) per_stream += trace.entries(p).size();
    EXPECT_EQ(per_stream, emitted.size()) << "trial " << trial;
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

TEST(RefTraceDeathTest, AppendRejectsTimeGoingBackwards) {
  RefTrace trace;
  trace.append({10, 0, 0, MemOp::kRead});
  EXPECT_DEATH(trace.append({9, 4, 1, MemOp::kRead}), "time goes backwards");
}

TEST(RefTraceDeathTest, AppendBlockRejectsStreamGoingBackwards) {
  RefTrace trace;
  const RefTrace::Entry e{0, MemOp::kRead};
  trace.append_block(0, 100, 10, std::span<const RefTrace::Entry>(&e, 1));
  EXPECT_DEATH(trace.append_block(0, 50, 10, std::span<const RefTrace::Entry>(&e, 1)),
               "time goes backwards");
}

}  // namespace
}  // namespace locus
