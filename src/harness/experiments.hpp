// Experiment definitions. experiment_catalog() is the only way to the
// report's tables: every table of the paper's evaluation (§5) and of this
// project's extensions is one file-local function with one signature,
// Table(const PaperCircuits&, const ExperimentConfig&), printing measured
// values next to the published ones. examples/reproduce_paper walks the
// catalog, and the tests reach each table by entry name through it. The
// sweeps declared here are the tools' own: run_check_*,
// run_fault_recovery_sweep and run_topology_sweep for check_tool, and
// run_scale_sweep for bench/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "assign/assignment.hpp"
#include "circuit/circuit.hpp"
#include "coherence/protocol.hpp"
#include "msg/config.hpp"
#include "msg/driver.hpp"
#include "shm/shm_router.hpp"
#include "support/table.hpp"

namespace locus {

/// Assignment methods compared in the locality experiments (Tables 4/5).
enum class AssignMethod : std::int8_t {
  kRoundRobin,
  kThreshold30,
  kThreshold1000,
  kThresholdInf,
};
const char* assign_method_name(AssignMethod method);
Assignment make_assignment(const Circuit& circuit, const Partition& partition,
                           AssignMethod method);

/// The two settings every report table shares. The paper's defaults: 16
/// processors in a 4x4 mesh and two routing iterations. Each table builds
/// its own runs from these (static ThresholdCost = 1000 assignment and
/// bounding-box packets unless the table varies them).
struct ExperimentConfig {
  std::int32_t procs = 16;
  std::int32_t iterations = 2;

  /// A default MpConfig running `schedule` for `iterations`.
  MpConfig mp(const UpdateSchedule& schedule) const;
  /// A default ShmConfig on `procs` loops for `iterations`.
  ShmConfig shm() const;
};

// --- E13: scale tier (ISSUE 8) — Table 6's sweep extended to 64-256
//     virtual processors on hierarchical 10k-1M wire circuits with sharded
//     views and region-batched update packets ---
/// How the sweep hands wires to processors (DESIGN.md §11):
///   kGeographic       static ThresholdCost-infinity assignment (the ISSUE 8
///                     baseline — fully local, but load follows geography),
///   kDynamicFifo      the §4.2 master queue (FIFO grants, one wire
///                     per round trip),
///   kDynamicLocality  extended protocol: locality-scored batched grants.
enum class ScaleAssignMode : std::int8_t {
  kGeographic,
  kDynamicFifo,
  kDynamicLocality,
};
const char* scale_assign_mode_name(ScaleAssignMode mode);

/// The sweep's fixed knobs (circuit seed, two iterations, region-batched
/// updates, the locality grant batch and radius) are constants in
/// experiments.cpp.
struct ScaleSweepOptions {
  std::vector<std::int32_t> wire_counts{10'000};
  std::vector<std::int32_t> proc_counts{16, 64};
  /// Assignment policies to sweep per wires x procs combination.
  std::vector<ScaleAssignMode> modes{ScaleAssignMode::kGeographic};
  /// Per-link interconnect timing for every run of the sweep
  /// (sim/link_cost.hpp); the default keeps the tables byte-identical to
  /// the pre-seam sweep.
  LinkCostModelKind cost_model = LinkCostModelKind::kFixed;
};

/// Per-mode metrics of the last (largest) wires x procs combination.
struct ScaleModeMetrics {
  ScaleAssignMode mode = ScaleAssignMode::kGeographic;
  double route_rps = 0.0;
  std::uint64_t traffic_bytes = 0;
  std::int64_t resident_bytes = 0;
  std::int64_t circuit_height = 0;
  /// Load balance actually achieved: wires routed per processor.
  std::int64_t routed_min = 0;
  std::int64_t routed_max = 0;
  double routed_stddev = 0.0;
  /// Static prediction (Assignment::cost_imbalance) for kGeographic; the
  /// max/mean ratio of routed wires for the dynamic modes.
  double imbalance = 0.0;
};

struct ScaleSweepResult {
  Table table;
  /// Metrics of the last completed (largest) run of the FIRST mode in
  /// ScaleSweepOptions::modes (tests/test_scale.cpp pins them).
  double headline_route_rps = 0.0;       ///< simulated wire routes per second
  std::uint64_t headline_traffic_bytes = 0;
  std::int64_t headline_resident_bytes = 0;
  std::int64_t headline_circuit_height = 0;
  /// One entry per mode for the last wires x procs combination that ran.
  std::vector<ScaleModeMetrics> headline_modes;
};

/// Sweeps proc_counts x wire_counts x modes, fanned over the process
/// job runner (results are pool-width independent). Rows whose mesh cannot
/// band the circuit (more mesh rows than channels) are reported as skipped.
/// Columns: wires, procs, mode, CktHt, routes/sec, traffic per wire,
/// speedup vs the first proc count of that circuit in the same mode,
/// resident view memory, imbalance, and routed-wires min/max/stddev across
/// processors (the load-balance story next to the throughput story).
ScaleSweepResult run_scale_sweep(const ScaleSweepOptions& options);

/// A checked sweep's table and its verdict: check_tool prints the table and
/// exits 1 unless every row passed.
struct CheckedSweep {
  Table table;
  /// Every row passed its sweep's check — the acceptance gate.
  bool all_ok = false;
  std::int32_t runs = 0;  ///< rows checked
};

// --- E15: interconnect cost models (ISSUE 10) — the four MP update
//     protocols priced on {mesh, torus, fat-tree} x {fixed, md1} ---
/// Every cell runs config.iterations on config.procs nodes (a binary fat
/// tree where the topology is one) with the reliable transport on, and
/// passes when its ledger balanced, its link bytes were conserved and the
/// view-consistency checker (checkpoint every 4 wires) stayed clean.
/// Sweeps schedule x topology x cost model, fanned over the job runner
/// (table bytes are pool-width independent). Columns: schedule, topology,
/// cost model, procs, CktHt, completion ms, traffic KB, per-link max/mean
/// utilization, links used, stalls, and the consistency + ledger verdict.
CheckedSweep run_topology_sweep(const Circuit& circuit,
                                const ExperimentConfig& config = {});

// --- C1/C2/C3: checking subsystem (src/check) ---
/// Differential oracle: sequential vs shm vs the four message passing
/// schedules, with legality, quality-band, and view-consistency verdicts.
/// `faults` (optional) is installed into the message passing machines. A row
/// passes when its verdict is OK (with `faults`, a FAIL row may be the
/// divergence the plan was meant to cause).
CheckedSweep run_check_oracle(const Circuit& circuit, const ExperimentConfig& config = {},
                              const FaultPlan* faults = nullptr);
/// Fault-injection sweep: one row per fault class showing what the network
/// injected and which checker signature detected it. A row passes unless it
/// is WRONG: it diverged without a divergence-class fault firing, or did not
/// diverge when one fired.
CheckedSweep run_check_faults(const Circuit& circuit, const ExperimentConfig& config = {});
/// Unlocked write-conflict scan of the shm reference trace per line size.
Table run_check_trace_scan(const Circuit& circuit,
                           const ExperimentConfig& config = {});
/// Reliable-transport recovery sweep: drop rate x update schedule with the
/// transport enabled. Each row reports the control-plane traffic the
/// recovery cost (retransmits, dedup discards, acks, overhead vs the
/// fault-free run) and asserts the convergence guarantee: routes, completion
/// time, and view staleness bit-identical to the same schedule's fault-free
/// run, with the transport ledger balanced. A row passes when both hold.
CheckedSweep run_fault_recovery_sweep(const Circuit& circuit,
                                      const ExperimentConfig& config = {});

// --- The experiment catalog: every table of the reproduction report ---
/// The circuits the catalog's experiments share. The industrial-like
/// circuit and the seed-robustness circuits are built by the one
/// experiment that reads each.
struct PaperCircuits {
  Circuit bnre;
  Circuit mdc;
};

/// One titled table of the report, built from the paper circuits and the
/// shared settings.
struct ExperimentStep {
  std::string title;
  Table (*build)(const PaperCircuits&, const ExperimentConfig&);
  /// Seconds rather than milliseconds (trace replays, larger circuits):
  /// reproduce_paper --skip-slow skips it.
  bool slow = false;
};

/// A named group of report sections, e.g. `table1_sender_initiated` or
/// `scaling_large`; `reproduce_paper --only=` selects entries by name.
struct Experiment {
  std::string name;
  std::vector<ExperimentStep> steps;
};

/// Every experiment of the reproduction report, in report order.
const std::vector<Experiment>& experiment_catalog();

/// The catalog entries named in `names`, a comma-separated list matched
/// exactly against Experiment::name, in catalog order; an empty string
/// selects every entry. Throws std::invalid_argument naming an unknown
/// name and listing the valid ones.
std::vector<const Experiment*> select_experiments(const std::string& names);

}  // namespace locus
