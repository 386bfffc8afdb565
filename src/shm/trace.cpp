#include "shm/trace.hpp"

#include <bit>

#include "support/assert.hpp"

namespace locus {

void RefTrace::open_block(std::int16_t proc) {
  LOCUS_ASSERT(proc >= 0);
  LOCUS_ASSERT_MSG(open_ == kNoBlock || streams_[open_].pushed == streams_[open_].closed,
                   "trace block opened over an unclosed one");
  const auto p = static_cast<std::size_t>(proc);
  if (p >= streams_.size()) streams_.resize(p + 1);
  open_ = p;
}

void RefTrace::close_block(SimTime t0, SimTime duration) {
  LOCUS_ASSERT_MSG(open_ != kNoBlock, "no open trace block");
  LOCUS_ASSERT(duration >= 0);
  Stream& s = streams_[open_];
  const std::size_t n = s.pushed - s.closed;
  if (n > 0) {
    LOCUS_ASSERT(n <= std::numeric_limits<std::uint32_t>::max());
    const Block block{t0, duration, static_cast<std::uint32_t>(n), next_seq_++};
    LOCUS_ASSERT_MSG(stamp(block, 0) >= s.last, "trace stream time goes backwards");
    s.blocks.push_back(block);
    s.closed = s.pushed;
    s.last = stamp(block, block.n - 1);
    last_ = std::max(last_, s.last);
    size_ += n;
    used_ = std::max(used_, open_ + 1);
  }
  open_ = kNoBlock;
}

void RefTrace::append(MemRef ref) {
  LOCUS_ASSERT_MSG(ref.time >= last_, "trace time goes backwards");
  open_block(ref.proc);
  push(ref.addr, ref.op);
  close_block(ref.time, 0);
}

std::uint64_t RefTrace::count(MemOp op) const {
  std::uint64_t writes = 0;
  for (const Stream& s : streams_) {
    for (std::size_t base = 0; base < s.closed; base += kChunkRefs) {
      const Chunk& c = *s.chunks[base / kChunkRefs];
      const std::size_t n = std::min(kChunkRefs, s.closed - base);
      for (std::size_t w = 0; w < n / 64; ++w) writes += std::popcount(c.ops[w]);
      if (n % 64 != 0) {
        const std::uint64_t tail_mask = (std::uint64_t{1} << (n % 64)) - 1;
        writes += std::popcount(c.ops[n / 64] & tail_mask);
      }
    }
  }
  return op == MemOp::kWrite ? writes : size_ - writes;
}

}  // namespace locus
