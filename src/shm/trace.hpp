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
// 64-bit word at a time. The storage is private to this header: a trace
// lives only in memory, from the run that records it to the replays and
// scans that read it in the same process.
//
// Order: no time-ordered copy is ever built. A reference's place in the
// global order is its Key (time, block emission seq, index in the block),
// the order a stable sort by time of the emission-ordered trace gives
// (DESIGN.md §7.6). for_each_write_interval() is the only ordered walk, and
// it orders only the writes: it merges the streams' next-write positions,
// and before each write visits, stream by stream, the reads that precede it,
// finding each stream's split by inverting the block stamps (refs_before),
// so no read is merged. Only writes need a global order: the coherence
// replay and the conflict scan stay exact on this walk, because the reads
// between two writes commute except for a per-line question each of them
// settles by key. Consumers that need no order walk each stream alone
// (for_each_entry, blocks, entry).
#pragma once

#include <algorithm>
#include <bit>
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

  /// Appends one reference as a one-entry block of duration 0. Time must not
  /// decrease from one append to the next, so visitation order is append
  /// order.
  void append(MemRef ref);

  /// Calls fn(const Entry&) for every reference of `proc`'s stream in its
  /// own (time) order. Streams are visited independently, so this is the
  /// cheap walk for consumers that need no global order.
  template <class Fn>
  void for_each_entry(std::size_t proc, Fn&& fn) const;

  std::size_t size() const { return size_; }
  std::uint64_t count(MemOp op) const;

  /// Reference k of `proc`'s stream, counted from the stream's start.
  Entry entry(std::size_t proc, std::size_t k) const { return streams_[proc].entry(k); }

  /// One more than the highest processor with a reference (0 when empty).
  std::size_t streams() const { return used_; }

  /// `n` consecutive references of a stream, stamped across [t0, t0+duration].
  struct Block {
    SimTime t0;
    SimTime duration;
    std::uint32_t n;
    std::uint64_t seq;  ///< emission order across all streams
  };

  /// The closed blocks of `proc`'s stream, in stream order.
  std::span<const Block> blocks(std::size_t proc) const { return streams_[proc].blocks; }

  /// A reference's place in the global order: its stamp, its block's seq
  /// and its index in the block. Keys are distinct.
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t i;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  /// Reference i of block b, whose key for_each_write_interval() computes
  /// only on demand.
  struct Position {
    const Block* block;
    std::uint32_t i;
    Key key() const { return Key{stamp(*block, i), block->seq, i}; }
  };

  /// Reference i of block b is stamped t0 + duration·(i+1)/(n+1).
  static SimTime stamp(const Block& b, std::uint32_t i) {
    return b.t0 + b.duration * static_cast<SimTime>(i + 1) /
                      (static_cast<SimTime>(b.n) + 1);
  }

  /// How many of b's references have a key below k: the split of b before
  /// k. Within k's own block that is k.i. In any other block, ties in time
  /// go to the lower seq, so the count is the first i whose stamp reaches
  /// T = k.time + (b.seq < k.seq), and floor division inverts exactly:
  /// stamp(b, i) >= T iff duration·(i+1) >= (T − t0)·(n+1).
  static std::uint32_t refs_before(const Block& b, const Key& k) {
    if (b.seq == k.seq) return k.i;
    const __int128 gap = __int128{k.time} + (b.seq < k.seq ? 1 : 0) - b.t0;  // T − t0
    if (gap <= 0) return 0;             // every stamp is at least t0 >= T
    if (gap >= b.duration) return b.n;  // every stamp is below t0 + duration <= T
    // 0 < gap < duration: the least i+1 with duration·(i+1) >= gap·(n+1). The
    // product fits in 64 bits whenever duration·n does (stamp() needs that),
    // so the 128-bit division is only a fallback.
    const auto need = static_cast<unsigned __int128>(gap) * (std::uint64_t{b.n} + 1);
    const auto duration = static_cast<std::uint64_t>(b.duration);
    if (need <= std::numeric_limits<std::uint64_t>::max()) {
      const auto narrow = static_cast<std::uint64_t>(need);
      return static_cast<std::uint32_t>(narrow / duration + (narrow % duration != 0) - 1);
    }
    return static_cast<std::uint32_t>((need + duration - 1) / duration - 1);
  }

  /// Visits every write in global order, calling on_write(proc, addr, key).
  /// Before each write it visits the reads between the previous write and
  /// this one, stream by stream in processor order and each stream in its
  /// own order; after the last write, the reads that follow it. Reads come
  /// in runs: on_reads(proc, addrs, first) gets consecutive reads of one
  /// block, the first of them at `first` and read j at first.i + j. So every
  /// read sees the writes that precede it, but reads between two writes come
  /// in stream order, not in global order.
  template <class OnReads, class OnWrite>
  void for_each_write_interval(OnReads&& on_reads, OnWrite&& on_write) const;

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
    /// Position of the first write at or after `from` among the closed
    /// references, or `closed` when there is none. Bits above a word's last
    /// written reference are clear, so a whole word is tested at once.
    std::size_t next_write(std::size_t from) const {
      for (std::size_t k = from; k < closed;) {
        const std::size_t off = k % kChunkRefs;
        const std::uint64_t word = chunks[k / kChunkRefs]->ops[off / 64] >> (off % 64);
        if (word != 0) {
          return std::min(closed, k + static_cast<std::size_t>(std::countr_zero(word)));
        }
        k += 64 - off % 64;
      }
      return closed;
    }
  };

  static constexpr std::size_t kNoBlock = std::numeric_limits<std::size_t>::max();

  std::vector<Stream> streams_;
  std::size_t open_ = kNoBlock;  ///< stream of the open block
  std::size_t used_ = 0;         ///< streams(): highest referenced proc + 1
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  SimTime last_ = std::numeric_limits<SimTime>::min();  ///< latest stamp overall
};

/// Each stream keeps a read cursor and its next write. The next write in
/// global order is the least of the streams' next-write keys (a linear scan:
/// there are at most a few dozen streams); every stream's cursor then visits
/// its references below that key, which are all reads because the stream's
/// own next write is not below it.
template <class OnReads, class OnWrite>
void RefTrace::for_each_write_interval(OnReads&& on_reads, OnWrite&& on_write) const {
  struct Cursor {
    std::size_t block = 0;  ///< block of the next reference to visit
    std::uint32_t i = 0;    ///< its index in the block
    std::size_t pos = 0;    ///< its stream position
    std::size_t write = 0;  ///< stream position of the next write, or closed
    std::size_t write_block = 0;
    std::size_t write_base = 0;  ///< stream position of write_block's first reference
    Key write_key{};
  };
  std::vector<Cursor> cursors(streams_.size());
  auto seek_write = [&](std::size_t p, std::size_t from) {
    const Stream& s = streams_[p];
    Cursor& c = cursors[p];
    c.write = s.next_write(from);
    if (c.write == s.closed) return;
    while (c.write - c.write_base >= s.blocks[c.write_block].n) {
      c.write_base += s.blocks[c.write_block++].n;
    }
    const Block& b = s.blocks[c.write_block];
    const auto i = static_cast<std::uint32_t>(c.write - c.write_base);
    c.write_key = Key{stamp(b, i), b.seq, i};
  };
  // Visits stream p's references below `limit`, or all that are left when
  // `limit` is null.
  auto visit_reads = [&](std::size_t p, const Key* limit) {
    const Stream& s = streams_[p];
    Cursor& c = cursors[p];
    while (c.block < s.blocks.size()) {
      const Block& b = s.blocks[c.block];
      const std::uint32_t end = limit != nullptr ? refs_before(b, *limit) : b.n;
      if (end <= c.i) return;
      for (std::uint32_t i = c.i; i < end;) {
        const std::size_t off = c.pos % kChunkRefs;
        const std::uint32_t* addr = s.chunks[c.pos / kChunkRefs]->addr + off;
        const auto m =
            static_cast<std::uint32_t>(std::min<std::size_t>(end - i, kChunkRefs - off));
        on_reads(p, std::span<const std::uint32_t>(addr, m), Position{&b, i});
        i += m;
        c.pos += m;
      }
      if (end < b.n) {
        c.i = end;
        return;
      }
      c.i = 0;
      ++c.block;
    }
  };

  for (std::size_t p = 0; p < streams_.size(); ++p) seek_write(p, 0);
  for (;;) {
    std::size_t q = streams_.size();
    for (std::size_t p = 0; p < streams_.size(); ++p) {
      if (cursors[p].write < streams_[p].closed &&
          (q == streams_.size() || cursors[p].write_key < cursors[q].write_key)) {
        q = p;
      }
    }
    if (q == streams_.size()) break;
    const Key key = cursors[q].write_key;
    for (std::size_t p = 0; p < streams_.size(); ++p) visit_reads(p, &key);
    // Stream q's cursor now stands on the write.
    const Stream& s = streams_[q];
    Cursor& c = cursors[q];
    on_write(q, s.entry(c.pos).addr, key);
    ++c.pos;
    if (++c.i == s.blocks[c.block].n) {
      c.i = 0;
      ++c.block;
    }
    seek_write(q, c.pos);
  }
  for (std::size_t p = 0; p < streams_.size(); ++p) visit_reads(p, nullptr);
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
