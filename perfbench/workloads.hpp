// The benchmark's workloads: what each generates from its seed, which runs
// make up one pass, and the correctness gate every run must pass.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "assign/assignment.hpp"
#include "circuit/circuit.hpp"
#include "geom/partition.hpp"
#include "harness/experiments.hpp"
#include "msg/config.hpp"
#include "sim/fault.hpp"
#include "tracer.hpp"

namespace perfbench {

/// One message passing run of a pass.
struct MpRun {
  std::string label;
  locus::MpConfig config;  ///< faults and observer are filled in per run
};

struct WorkloadSpec {
  std::string name;
  /// make_scale_circuit(wires, seed) when set, else a bnrE-like circuit
  /// (10 channels x 341 grids) with `wires` wires.
  bool hierarchical = false;
  std::int32_t wires = 0;
  std::int32_t procs = 16;
  locus::AssignMethod assign = locus::AssignMethod::kThreshold1000;
  std::vector<MpRun> mp_runs;
  /// Installed into every message passing run when set (its seed is
  /// replaced by the workload seed).
  std::optional<locus::FaultPlan> faults;
  /// > 0: every message passing run carries a ViewConsistencyChecker with
  /// this checkpoint period and must converge.
  std::int32_t checkpoint_period = 0;
  /// Non-empty: one shared memory run with the full reference trace,
  /// replayed under write-back-invalidate at each of these line sizes.
  std::vector<std::int32_t> line_sizes;
};

/// The named workload at full size, or at `tiny` size for the self-test;
/// nullopt for an unknown name.
std::optional<WorkloadSpec> workload_spec(const std::string& name, bool tiny);

/// Everything a pass reads, generated from the seed (the benchmark's
/// set-up: circuit generation, partitioning, assignment).
struct Inputs {
  locus::Circuit circuit;
  locus::Partition partition;
  locus::Assignment assignment;
  locus::FaultPlan faults;
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, Tracer* tracer);

/// Outputs of one pass over the run set. Every count is a deterministic
/// function of the inputs, so two passes over the same inputs agree exactly.
struct PassResult {
  std::int32_t runs = 0;
  std::vector<std::string> failures;  ///< one line per failed run
  /// Keyed by metric name (ckt_height, traffic_bytes, sim_time_ns, and the
  /// layer counts such as msg.packets); all integral.
  std::map<std::string, std::int64_t> counts;
  /// Host seconds of each run, checks included, in run-set order.
  std::vector<double> run_seconds;
};

PassResult run_pass(const WorkloadSpec& spec, const Inputs& inputs, Tracer* tracer);

}  // namespace perfbench
