// Tests for the binary .trc trace format.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "circuit/generator.hpp"
#include "shm/shm_router.hpp"
#include "shm/trace_io.hpp"
#include "support/rng.hpp"

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
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed.refs()[i].time, original.refs()[i].time);
    EXPECT_EQ(parsed.refs()[i].addr, original.refs()[i].addr);
    EXPECT_EQ(parsed.refs()[i].proc, original.refs()[i].proc);
    EXPECT_EQ(parsed.refs()[i].op, original.refs()[i].op);
  }
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
  EXPECT_EQ(parsed.refs().front().addr, trace.refs().front().addr);
  EXPECT_EQ(parsed.refs().back().time, trace.refs().back().time);
}

TEST(TraceIo, RejectsNegativeProc) {
  std::string data = serialized(sample_trace());
  data[record_byte(1, 13)] = static_cast<char>(0x80);  // proc high byte
  std::stringstream buf(data);
  EXPECT_THROW(read_trace(buf), std::runtime_error);
}

TEST(TraceIo, RejectsTimeGoingBackwards) {
  RefTrace trace;
  trace.append({10, 0, 0, MemOp::kRead});
  trace.append({9, 4, 1, MemOp::kRead});
  std::stringstream buf(serialized(trace));
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
  const RefTrace full = run_shared_memory(make_tiny_test_circuit(), config).trace;
  RefTrace base;
  for (std::size_t i = 0; i < 64; ++i) base.append(full.refs()[i]);
  const std::string clean = serialized(base);

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
      for (const MemRef& r : trace.refs()) {
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

}  // namespace
}  // namespace locus
