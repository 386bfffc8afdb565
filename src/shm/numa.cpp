#include "shm/numa.hpp"

namespace locus {

NumaEstimate estimate_numa(const RefTrace& trace, const Partition& partition,
                           const NumaParams& params) {
  NumaEstimate out;
  const std::int32_t channels = partition.channels();
  for (std::size_t p = 0; p < trace.streams(); ++p) {
    const auto proc = static_cast<std::int32_t>(p);
    trace.for_each_entry(p, [&](const RefTrace::Entry& e) {
      bool local;
      if (e.addr == kLoopCounterAddr) {
        local = (proc == 0);
      } else {
        // Invert the column-major address map (see trace.hpp).
        const std::uint32_t cell = e.addr / 4;
        const auto x = static_cast<std::int32_t>(cell / static_cast<std::uint32_t>(channels));
        const auto channel =
            static_cast<std::int32_t>(cell % static_cast<std::uint32_t>(channels));
        local = partition.owner(GridPoint{channel, x}) == proc;
      }
      if (local) {
        ++out.local_refs;
        out.memory_ns += params.local_ns;
      } else {
        ++out.remote_refs;
        out.memory_ns += params.remote_ns;
      }
    });
  }
  return out;
}

}  // namespace locus
