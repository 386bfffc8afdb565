// Differential oracle: run the sequential reference, the shared memory
// router, and the message passing router (all four update transaction
// types, blocking and non-blocking receivers) on the SAME circuit and
// cross-check the results.
//
// The implementations legitimately differ — stale views change which paths
// get picked — so quality metrics are compared within tolerance bands
// around the sequential baseline rather than for equality. What must hold
// exactly: every routing is legal (check/legality.hpp), and every message
// passing run satisfies the view-consistency conservation law at every
// checkpoint (check/consistency.hpp). With an all-zero FaultPlan the oracle
// must pass everywhere; with injected faults it is the detector whose
// verdicts the fault-injection tests assert on.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "check/consistency.hpp"
#include "check/legality.hpp"
#include "circuit/circuit.hpp"
#include "msg/config.hpp"
#include "msg/transport.hpp"
#include "sim/fault.hpp"
#include "sim/link_cost.hpp"
#include "sim/topology.hpp"

namespace locus {

/// Quality bands, relative to the sequential baseline: a variant passes
/// when  value <= base * (1 + rel) + abs.  Parallel quality degrades with
/// staleness (paper §5.1) but must stay in the same league.
inline constexpr double kOracleHeightRel = 0.35;
inline constexpr std::int64_t kOracleHeightAbs = 2;
inline constexpr double kOracleOccupancyRel = 2.0;
inline constexpr std::int64_t kOracleOccupancyAbs = 100;
/// Conservation checkpoint period (routed wires) of the mp runs' checkers.
inline constexpr std::int32_t kOracleCheckpointPeriod = 4;

struct OracleConfig {
  std::int32_t procs = 4;
  std::int32_t iterations = 2;
  /// Optional fault plan installed into the message passing machines (the
  /// sequential and shm runs have no network to fault).
  const FaultPlan* faults = nullptr;
  /// Reliable transport for the message passing machines (default-off).
  /// With transport on, a faulted oracle run must pass: recovery restores
  /// the exact fault-free views the consistency law expects.
  TransportConfig transport;
  /// Interconnect shape and per-link timing for the message passing
  /// machines. The conservation law is timing-independent, so the oracle
  /// must pass under every cost model x topology pair (the network test
  /// battery sweeps exactly that). A fat tree is binary (MpConfig's
  /// default arity).
  Topology::Edges edges = Topology::Edges::kMesh;
  LinkCostParams link_cost;
};

/// A named message passing schedule of the checking sweeps.
struct CheckSchedule {
  const char* name;
  UpdateSchedule schedule;
};

/// The four update schedules every checking sweep runs, in this order:
/// sender(10,5), receiver(5,2), receiver-blk(5,2) and mixed (send_loc 10,
/// send_rmt 5, req_rmt 3, req_loc 2). The differential oracle names its
/// variants "msg " + name; the topology and fault recovery sweeps use the
/// bare names.
std::span<const CheckSchedule> checking_schedules();

/// One implementation's outcome and verdicts.
struct OracleVariant {
  std::string name;
  std::int64_t circuit_height = 0;
  std::int64_t occupancy_factor = 0;
  LegalityReport legality;
  bool height_in_band = false;
  bool occupancy_in_band = false;
  /// Message passing runs carry their consistency report; other variants
  /// hold a default (vacuously consistent, converged unset) report.
  ConsistencyReport consistency;
  bool is_message_passing = false;

  bool ok() const {
    return legality.legal() && height_in_band && occupancy_in_band &&
           consistency.consistent() &&
           (!is_message_passing || consistency.converged());
  }
};

struct OracleResult {
  std::int64_t seq_height = 0;
  std::int64_t seq_occupancy = 0;
  std::vector<OracleVariant> variants;

  bool all_ok() const {
    for (const OracleVariant& v : variants) {
      if (!v.ok()) return false;
    }
    return true;
  }
  /// One-line verdict summary ("seq h=12 | shm OK | msg sender(10,5) OK ...").
  std::string describe() const;
};

/// Runs every implementation on `circuit` and cross-checks. Deterministic.
OracleResult run_differential_oracle(const Circuit& circuit,
                                     const OracleConfig& config);

}  // namespace locus
