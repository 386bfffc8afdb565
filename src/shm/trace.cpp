#include "shm/trace.hpp"

#include "support/assert.hpp"

namespace locus {

void RefTrace::append_block(std::int16_t proc, SimTime t0, SimTime duration,
                            std::span<const Entry> entries) {
  LOCUS_ASSERT(proc >= 0);
  LOCUS_ASSERT(duration >= 0);
  if (entries.empty()) return;
  const auto p = static_cast<std::size_t>(proc);
  if (p >= streams_.size()) streams_.resize(p + 1);
  Stream& s = streams_[p];
  const Block block{t0, duration, static_cast<std::uint32_t>(entries.size()), next_seq_++};
  LOCUS_ASSERT_MSG(stamp(block, 0) >= s.last, "trace stream time goes backwards");
  s.entries.insert(s.entries.end(), entries.begin(), entries.end());
  s.blocks.push_back(block);
  s.last = stamp(block, block.n - 1);
  last_ = std::max(last_, s.last);
  size_ += entries.size();
}

void RefTrace::append(MemRef ref) {
  LOCUS_ASSERT_MSG(ref.time >= last_, "trace time goes backwards");
  const Entry entry{ref.addr, ref.op};
  append_block(ref.proc, ref.time, 0, std::span<const Entry>(&entry, 1));
}

std::uint64_t RefTrace::count(MemOp op) const {
  std::uint64_t n = 0;
  for (const Stream& s : streams_) {
    for (const Entry& e : s.entries) {
      if (e.op == op) ++n;
    }
  }
  return n;
}

}  // namespace locus
