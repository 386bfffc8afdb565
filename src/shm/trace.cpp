#include "shm/trace.hpp"

namespace locus {

std::uint64_t RefTrace::count(MemOp op) const {
  std::uint64_t n = 0;
  for (const MemRef& r : refs_) {
    if (r.op == op) ++n;
  }
  return n;
}

}  // namespace locus
