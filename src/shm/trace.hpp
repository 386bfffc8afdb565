// Shared-data reference traces (the Tango methodology, paper §2.2).
//
// The shared memory build records every shared reference — time, address,
// referencing processor, read/write — while a deterministic multiplexed
// executor simulates the multiprocess run on one host. The coherence
// simulator (src/coherence) then replays the trace against a cache protocol
// to produce the Table 3/5 traffic numbers.
//
// Volume control (ShmConfig::trace_dedup_reads, off by default): within one
// wire's routing no remote write can interleave (the executor interleaves at
// wire granularity), so the tracer can emit each cell's first read once per
// wire and shrink traces ~40x. That is not exact for the replay: a cache copy
// invalidated by a concurrent write between two reads of the same wire misses
// again on the second read, and those re-misses are the traffic that makes
// Table 3 grow with line size. Full traces are therefore the default.
//
// Order: the shm executor merges per-processor reference streams into one
// time-ordered trace; equal-time refs keep emission order (DESIGN.md §7.6).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"

namespace locus {

enum class MemOp : std::uint8_t { kRead = 0, kWrite = 1 };

/// One shared reference. `addr` is a byte address; cost array cells are
/// 4-byte words at cell_index * 4, and other shared objects (the distributed
/// loop index) live at distinct high addresses.
struct MemRef {
  SimTime time;
  std::uint32_t addr;
  std::int16_t proc;
  MemOp op;
};

/// Byte address of a cost-array cell. The layout is column-major —
/// cost[grid][channel], vertically adjacent cells contiguous — matching the
/// original LocusRoute indexing implied by the paper's Table 3: traffic
/// grows almost linearly with line size, which requires the dominant
/// (horizontal, along-channel) accesses to be strided past a 32-byte line
/// (column stride = channels * 4 bytes = 40 B for bnrE).
constexpr std::uint32_t cost_cell_addr(std::int32_t channel, std::int32_t x,
                                       std::int32_t channels) {
  return static_cast<std::uint32_t>(x * channels + channel) * 4u;
}

/// Byte address of the distributed-loop wire counter.
inline constexpr std::uint32_t kLoopCounterAddr = 0xF000'0000u;

class RefTrace {
 public:
  void append(MemRef ref) { refs_.push_back(ref); }
  void reserve(std::size_t n) { refs_.reserve(n); }

  const std::vector<MemRef>& refs() const { return refs_; }
  std::size_t size() const { return refs_.size(); }

  std::uint64_t count(MemOp op) const;

 private:
  std::vector<MemRef> refs_;
};

}  // namespace locus
