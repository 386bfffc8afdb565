// Builds and runs one message passing LocusRoute experiment: partition the
// cost array over a processor mesh, install a RouterNode per processor with
// its statically assigned wires, simulate to completion, and compute the
// paper's reported metrics (circuit height, occupancy factor, MBytes
// transferred, execution time).
#pragma once

#include <cstdint>
#include <vector>

#include "assign/assignment.hpp"
#include "circuit/circuit.hpp"
#include "geom/partition.hpp"
#include "msg/config.hpp"
#include "msg/node.hpp"
#include "route/router.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "sim/network.hpp"

namespace locus {

struct MpRunResult {
  std::int64_t circuit_height = 0;
  std::int64_t occupancy_factor = 0;
  std::uint64_t bytes_transferred = 0;  ///< on-wire bytes, all packet types
  double mbytes() const { return static_cast<double>(bytes_transferred) / 1e6; }
  SimTime completion_ns = 0;            ///< all processors done routing
  double seconds() const { return static_cast<double>(completion_ns) / 1e9; }

  NetworkStats network;
  MachineStats machine;
  RouteWorkStats work;                  ///< summed over processors
  TimeBreakdown time_breakdown;         ///< summed over processors
  std::int64_t updates_suppressed = 0;
  std::int64_t requests_sent = 0;
  /// Dynamic-scheduling counters (all zero for static runs / the legacy
  /// FIFO protocol where noted).
  std::int64_t grants_issued = 0;    ///< extended protocol only
  std::int64_t grant_wires = 0;      ///< extended protocol only
  std::int64_t affinity_grants = 0;  ///< GrantPolicy::kLocality only
  /// Packets and application bytes per message kind (msg_kind_index), as
  /// the nodes handed them to the network and as they were delivered.
  KindTally sent_by_kind{};
  KindTally received_by_kind{};
  /// Wires routed by each processor in total (all iterations) — the load
  /// balance the scale sweep reports alongside routes/sec.
  std::vector<std::int64_t> routed_per_proc;
  FaultStats faults;                    ///< all-zero when no plan installed
  TransportStats transport;             ///< all-zero when transport disabled
  /// Per-link usage aggregate from the active LinkCostModel, measured at
  /// the machine's drain time (stalls are zero under kFixed only when no
  /// two packets ever contended for a link).
  LinkUsageSummary link_usage;
  /// Bytes that crossed each directed link (data + control). Sums exactly
  /// to network.byte_hops under every cost model and topology.
  std::vector<std::uint64_t> link_bytes;
  /// Busy time of each directed link; over machine.drain_time it is the
  /// link's utilization (LinkCostModel::utilization_of).
  std::vector<SimTime> link_busy_ns;
  std::vector<WireRoute> routes;        ///< final routing, indexed by wire id

  /// Mean absolute error of the processors' final cost-array views against
  /// the true final array — a direct measure of how much staleness the
  /// update schedule left behind (lower = more consistent).
  double view_staleness = 0.0;
  /// Same error restricted to each processor's own region. Owners receive
  /// every SendRmtData for their region, so frequent schedules drive this
  /// toward zero.
  double own_region_staleness = 0.0;

  /// Cell storage actually allocated across all processor views at the end
  /// of the run: whole tiles, so it can exceed procs x grid size on a small
  /// chip, and stays far below it at scale.
  std::int64_t view_resident_cells = 0;
  std::int64_t view_resident_bytes = 0;
};

/// Runs message passing LocusRoute on `circuit` with the given static
/// `assignment` over `partition` (assignment.num_procs() must equal
/// partition.num_regions()). Deterministic.
MpRunResult run_message_passing(const Circuit& circuit, const Partition& partition,
                                const Assignment& assignment, const MpConfig& config);

/// Convenience: builds the near-square mesh partition for `procs`, applies
/// the default locality assignment (ThresholdCost = 1000, the paper's usual
/// baseline), and runs.
MpRunResult run_message_passing(const Circuit& circuit, std::int32_t procs,
                                const MpConfig& config);

}  // namespace locus
