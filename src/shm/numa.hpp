// Hierarchical (NUMA) shared memory reference-cost model.
//
// Paper §5.3: "in hierarchical shared memory architectures, now being
// considered because of their scalability, a local reference can be more
// than an order of magnitude faster than a non-local reference. This
// architectural trend indicates that locality will become an important part
// of future program design." This model quantifies that argument for our
// traces: each shared reference is classified local (its cost-array cell
// lies in the referencing processor's owned region) or remote, and memory
// time is charged accordingly. Locality-aware wire assignment should lower
// the remote fraction — the mechanism behind the paper's prediction.
#pragma once

#include <cstdint>

#include "geom/partition.hpp"
#include "shm/trace.hpp"

namespace locus {

struct NumaParams {
  SimTime local_ns = 400;    ///< reference into the local memory module
  SimTime remote_ns = 5000;  ///< reference across the hierarchy (>10x)
};

struct NumaEstimate {
  std::uint64_t local_refs = 0;
  std::uint64_t remote_refs = 0;
  SimTime memory_ns = 0;  ///< total reference time under the cost model

  double remote_fraction() const {
    const std::uint64_t total = local_refs + remote_refs;
    return total == 0 ? 0.0
                      : static_cast<double>(remote_refs) /
                            static_cast<double>(total);
  }
};

/// Classifies every reference of `trace` against `partition` (whose region
/// of the cost array each processor's memory module holds). Non-cost-array
/// shared objects (the distributed loop counter) count as remote for every
/// processor except 0, which hosts them.
NumaEstimate estimate_numa(const RefTrace& trace, const Partition& partition,
                           const NumaParams& params = {});

}  // namespace locus
