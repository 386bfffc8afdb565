// Shared-data reference traces (the Tango methodology, paper §2.2).
//
// The shared memory build records every shared reference — time, address,
// referencing processor, read/write — while a deterministic multiplexed
// executor simulates the multiprocess run on one host. The coherence
// simulator (src/coherence) then replays the trace against a cache protocol
// to produce the Table 3/5 traffic numbers.
//
// Storage: a RefTrace keeps one stream per processor, grouped into blocks
// (one per routed wire) whose references are stamped evenly across the
// block's time interval. A stream stores two columns — a 32-bit address per
// reference and one op bit per reference — in fixed-size chunks, so a
// growing stream never copies (or faults in again) what it already wrote.
// The tracer writes each reference straight into its processor's stream and
// closing a block only records {t0, duration, n, seq}. The router's probes
// arrive as straight runs of cells, so a run of reads is appended in one
// call: its addresses are an arithmetic progression written straight into
// the address column, and its op bits (reads are 0) are cleared a whole
// 64-bit word at a time.
//
// Order: no time-ordered copy is ever built. for_each() heap-merges the
// stream heads on (time, block emission seq), which visits the references
// in global time order with equal times in emission order — the order a
// stable sort by time of the emission-ordered trace gives (DESIGN.md §7.6).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "sim/event_queue.hpp"
#include "support/assert.hpp"

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

  /// References per storage chunk of a stream.
  static constexpr std::size_t kChunkRefs = std::size_t{1} << 16;

  /// Opens a block on `proc`'s stream: push() appends references to it
  /// until close_block(). The previous block must have been closed unless
  /// nothing was pushed to it.
  void open_block(std::int16_t proc);

  /// Appends one reference to the open block.
  void push(std::uint32_t addr, MemOp op) {
    LOCUS_ASSERT_MSG(open_ != kNoBlock, "trace push without an open block");
    streams_[open_].push(addr, op);
  }

  /// Appends the reads of addr, addr + stride, ..., n of them, to the open
  /// block: the references n push(·, MemOp::kRead) calls would append. A
  /// negative stride wraps like the unsigned address arithmetic.
  void push_read_run(std::uint32_t addr, std::int32_t stride, std::size_t n) {
    LOCUS_ASSERT_MSG(open_ != kNoBlock, "trace push without an open block");
    streams_[open_].push_read_run(addr, static_cast<std::uint32_t>(stride), n);
  }

  /// Closes the open block: reference i of its n is stamped
  /// t0 + duration·(i+1)/(n+1), so times rise within the block. The first
  /// stamp must not precede the stream's last one — the shm executor (least
  /// clock runs next) starts a processor's next wire no earlier than its
  /// previous one ended. An empty block adds nothing.
  void close_block(SimTime t0, SimTime duration);

  /// open_block(proc), push() of every entry, close_block(t0, duration).
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

  /// Calls fn(const Entry&) for every reference of `proc`'s stream in its
  /// own (time) order. Streams are visited independently, so this is the
  /// cheap walk for consumers that need no global order.
  template <class Fn>
  void for_each_entry(std::size_t proc, Fn&& fn) const;

  std::size_t size() const { return size_; }
  std::uint64_t count(MemOp op) const;

  /// One more than the highest processor with a reference (0 when empty).
  std::size_t streams() const { return used_; }

 private:
  /// kChunkRefs consecutive references of a stream, left uninitialised
  /// until written.
  struct Chunk {
    std::uint32_t addr[kChunkRefs];
    std::uint64_t ops[kChunkRefs / 64];  ///< bit i % 64 of word i / 64: op of i

    MemOp op(std::size_t i) const {
      return static_cast<MemOp>((ops[i / 64] >> (i % 64)) & 1u);
    }
  };
  /// `n` consecutive references of a stream, stamped across [t0, t0+duration].
  struct Block {
    SimTime t0;
    SimTime duration;
    std::uint32_t n;
    std::uint64_t seq;  ///< emission order across all streams
  };
  struct Stream {
    std::vector<std::unique_ptr<Chunk>> chunks;
    std::size_t pushed = 0;  ///< references written, the open block's included
    std::size_t closed = 0;  ///< references in closed blocks
    std::vector<Block> blocks;
    SimTime last = std::numeric_limits<SimTime>::min();  ///< latest stamp

    void push(std::uint32_t addr, MemOp op) {
      const std::size_t i = pushed++ % kChunkRefs;
      if (i == 0) chunks.push_back(std::make_unique_for_overwrite<Chunk>());
      Chunk& c = *chunks.back();
      c.addr[i] = addr;
      const std::uint64_t bit = static_cast<std::uint64_t>(op) << (i % 64);
      std::uint64_t& word = c.ops[i / 64];
      word = i % 64 == 0 ? bit : word | bit;
    }
    // Bits above a word's last written reference are clear (push() starts a
    // word with its first bit), so a run of reads only zeroes the words that
    // start inside it.
    void push_read_run(std::uint32_t addr, std::uint32_t stride, std::size_t n) {
      while (n > 0) {
        const std::size_t i = pushed % kChunkRefs;
        if (i == 0) chunks.push_back(std::make_unique_for_overwrite<Chunk>());
        Chunk& c = *chunks.back();
        const std::size_t k = std::min(n, kChunkRefs - i);
        for (std::size_t j = 0; j < k; ++j) {
          c.addr[i + j] = addr + static_cast<std::uint32_t>(j) * stride;
        }
        for (std::size_t w = (i + 63) / 64; w * 64 < i + k; ++w) c.ops[w] = 0;
        addr += static_cast<std::uint32_t>(k) * stride;
        pushed += k;
        n -= k;
      }
    }
    Entry entry(std::size_t k) const {
      const Chunk& c = *chunks[k / kChunkRefs];
      return Entry{c.addr[k % kChunkRefs], c.op(k % kChunkRefs)};
    }
  };

  static SimTime stamp(const Block& b, std::uint32_t i) {
    return b.t0 + b.duration * static_cast<SimTime>(i + 1) /
                      (static_cast<SimTime>(b.n) + 1);
  }

  static constexpr std::size_t kNoBlock = std::numeric_limits<std::size_t>::max();

  std::vector<Stream> streams_;
  std::size_t open_ = kNoBlock;  ///< stream of the open block
  std::size_t used_ = 0;         ///< streams(): highest referenced proc + 1
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
    const Entry e = s.entry(c.entry++);
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

template <class Fn>
void RefTrace::for_each_entry(std::size_t proc, Fn&& fn) const {
  const Stream& s = streams_[proc];
  for (std::size_t base = 0; base < s.closed; base += kChunkRefs) {
    const Chunk& c = *s.chunks[base / kChunkRefs];
    const std::size_t n = std::min(kChunkRefs, s.closed - base);
    for (std::size_t i = 0; i < n; ++i) fn(Entry{c.addr[i], c.op(i)});
  }
}

}  // namespace locus
