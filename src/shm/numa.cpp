#include "shm/numa.hpp"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace locus {

namespace numa {

#if defined(__linux__)

namespace {

/// The process mask captured on first query.
const cpu_set_t& process_mask() {
  static const cpu_set_t mask = [] {
    cpu_set_t m;
    CPU_ZERO(&m);
    if (sched_getaffinity(0, sizeof(m), &m) != 0) {
      // No mask readable: leave it empty, which allowed_cpus() surfaces as
      // an empty list and available_cpus() as hardware_concurrency.
      CPU_ZERO(&m);
    }
    return m;
  }();
  return mask;
}

}  // namespace

int available_cpus() {
  const int n = CPU_COUNT(&process_mask());
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<int> allowed_cpus() {
  const cpu_set_t& mask = process_mask();
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
  return cpus;
}

#else  // !__linux__: no affinity control; report honestly.

int available_cpus() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<int> allowed_cpus() { return {}; }

#endif

}  // namespace numa

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
