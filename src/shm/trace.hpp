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
// Storage and order: a RefTrace keeps one compact stream per processor — an
// {addr, op} entry per reference, grouped into blocks (one per routed wire)
// whose references are stamped evenly across the block's time interval. No
// time-ordered copy is ever built: for_each() heap-merges the stream heads on
// (time, block emission seq), which visits the references in global time
// order with equal times in emission order — the order a stable sort by time
// of the emission-ordered trace gives (DESIGN.md §7.6).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
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
  /// A reference as its stream stores it; the processor is the stream's and
  /// the time comes from the enclosing block.
  struct Entry {
    std::uint32_t addr;
    MemOp op;
  };

  /// Appends `entries` to `proc`'s stream as one block: entry i of n is
  /// stamped t0 + duration·(i+1)/(n+1), so times rise within the block.
  /// The first stamp must not precede the stream's last one — the shm
  /// executor (least clock runs next) starts a processor's next wire no
  /// earlier than its previous one ended. An empty block adds nothing.
  void append_block(std::int16_t proc, SimTime t0, SimTime duration,
                    std::span<const Entry> entries);

  /// Appends one reference as a one-entry block of duration 0. Time must not
  /// decrease from one append to the next, so visitation order is append
  /// order.
  void append(MemRef ref);

  /// Calls fn(const MemRef&) for every reference in global time order, equal
  /// times in emission order.
  template <class Fn>
  void for_each(Fn&& fn) const;

  std::size_t size() const { return size_; }
  std::uint64_t count(MemOp op) const;

  /// One more than the highest processor with a reference (0 when empty).
  std::size_t streams() const { return streams_.size(); }
  /// `proc`'s references in its own (time) order.
  std::span<const Entry> entries(std::size_t proc) const {
    return streams_[proc].entries;
  }

 private:
  /// `n` consecutive entries of a stream, stamped across [t0, t0+duration].
  struct Block {
    SimTime t0;
    SimTime duration;
    std::uint32_t n;
    std::uint64_t seq;  ///< emission order across all streams
  };
  struct Stream {
    std::vector<Entry> entries;
    std::vector<Block> blocks;
    SimTime last = std::numeric_limits<SimTime>::min();  ///< latest stamp
  };

  static SimTime stamp(const Block& b, std::uint32_t i) {
    return b.t0 + b.duration * static_cast<SimTime>(i + 1) /
                      (static_cast<SimTime>(b.n) + 1);
  }

  std::vector<Stream> streams_;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  SimTime last_ = std::numeric_limits<SimTime>::min();  ///< latest stamp overall
};

/// Each stream is sorted by (time, block seq, i), and block seqs are distinct
/// across streams, so a min-heap of the stream heads on (time, seq) yields
/// the global order. The root is replaced by its stream's next reference
/// (or the last head once the stream drains) and sifted down in place.
template <class Fn>
void RefTrace::for_each(Fn&& fn) const {
  struct Head {
    SimTime time;
    std::uint64_t seq;
    std::size_t proc;
  };
  struct Cursor {
    std::size_t block = 0;
    std::uint32_t i = 0;  ///< reference within the block
    std::size_t entry = 0;
  };
  auto before = [](const Head& a, const Head& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  };

  std::vector<Head> heap;
  for (std::size_t p = 0; p < streams_.size(); ++p) {
    const Stream& s = streams_[p];
    if (!s.blocks.empty()) heap.push_back(Head{stamp(s.blocks[0], 0), s.blocks[0].seq, p});
  }
  std::make_heap(heap.begin(), heap.end(),
                 [&](const Head& a, const Head& b) { return before(b, a); });
  std::vector<Cursor> cursors(streams_.size());

  while (!heap.empty()) {
    Head top = heap.front();
    const Stream& s = streams_[top.proc];
    Cursor& c = cursors[top.proc];
    const Entry& e = s.entries[c.entry++];
    fn(MemRef{top.time, e.addr, static_cast<std::int16_t>(top.proc), e.op});
    if (++c.i == s.blocks[c.block].n) {
      c.i = 0;
      ++c.block;
    }
    if (c.block < s.blocks.size()) {
      const Block& b = s.blocks[c.block];
      top.time = stamp(b, c.i);
      top.seq = b.seq;
    } else {
      top = heap.back();
      heap.pop_back();
      if (heap.empty()) break;
    }
    std::size_t hole = 0;
    for (std::size_t child = 1; child < heap.size(); child = 2 * hole + 1) {
      if (child + 1 < heap.size() && before(heap[child + 1], heap[child])) ++child;
      if (!before(heap[child], top)) break;
      heap[hole] = heap[child];
      hole = child;
    }
    heap[hole] = top;
  }
}

}  // namespace locus
