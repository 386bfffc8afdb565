// Experiment definitions: one function per table/figure of the paper's
// evaluation (§5), each returning a printable Table with measured values
// next to the published ones. The bench binaries are thin wrappers over
// these, and the integration tests assert the qualitative claims on small
// circuits through the same code paths.
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

/// Baseline knobs shared by every experiment. The paper's defaults: 16
/// processors in a 4x4 mesh, two routing iterations, static ThresholdCost =
/// 1000 assignment, bounding-box packets.
struct ExperimentConfig {
  std::int32_t procs = 16;
  std::int32_t iterations = 2;
  MpConfig mp_base;   ///< schedule is overridden per experiment
  ShmConfig shm_base; ///< assignment/procs overridden per experiment

  MpConfig mp(const UpdateSchedule& schedule) const;
  ShmConfig shm() const;
};

// --- E1/E2/E3: update strategies (§5.1) ---
Table run_table1_sender_initiated(const Circuit& circuit,
                                  const ExperimentConfig& config = {});
Table run_table2_receiver_initiated(const Circuit& circuit,
                                    const ExperimentConfig& config = {});
/// Blocking vs non-blocking sweep plus the mixed schedule comparison.
Table run_sec513_blocking(const Circuit& circuit,
                          const ExperimentConfig& config = {});
Table run_sec513_mixed(const Circuit& circuit, const ExperimentConfig& config = {});

// --- E4/E11: shared memory traffic (§5.2, Table 3) ---
struct Table3Result {
  Table table;       ///< traffic vs line size, with paper column
  Table breakdown;   ///< per-cause byte breakdown at each line size
  double write_fraction_8b = 0.0;
};
Table3Result run_table3_line_size(const Circuit& circuit,
                                  const ExperimentConfig& config = {});

// --- E5: MP vs SHM summary (§5.2) ---
Table run_sec52_comparison(const Circuit& circuit,
                           const ExperimentConfig& config = {});

// --- E6/E7: locality (§5.3, Tables 4/5) ---
Table run_table4_locality_mp(const Circuit& bnre, const Circuit& mdc,
                             const ExperimentConfig& config = {});
/// The §5.3.1 receiver-initiated locality traffic claim (63% reduction).
Table run_table4_receiver_locality(const Circuit& circuit,
                                   const ExperimentConfig& config = {});
Table run_table5_locality_shm(const Circuit& bnre, const Circuit& mdc,
                              const ExperimentConfig& config = {});

// --- E8: locality measure (§5.3.3) ---
Table run_locality_measure(const Circuit& bnre, const Circuit& mdc,
                           const ExperimentConfig& config = {});

// --- E9/E10: scaling (§5.4, Table 6) ---
Table run_table6_scaling(const Circuit& circuit, const ExperimentConfig& config = {});
Table run_speedup(const Circuit& bnre, const Circuit& mdc,
                  const ExperimentConfig& config = {});

// --- E13: scale tier (ISSUE 8) — Table 6's sweep extended to 64-256
//     virtual processors on hierarchical 10k-1M wire circuits with sharded
//     views and region-batched update packets ---
/// How the sweep hands wires to processors (DESIGN.md §11):
///   kGeographic       static ThresholdCost-infinity assignment (the ISSUE 8
///                     baseline — fully local, but load follows geography),
///   kDynamicFifo      the legacy §4.2 master queue (FIFO grants, one wire
///                     per round trip),
///   kDynamicLocality  extended protocol: locality-scored batched grants.
enum class ScaleAssignMode : std::int8_t {
  kGeographic,
  kDynamicFifo,
  kDynamicLocality,
};
const char* scale_assign_mode_name(ScaleAssignMode mode);

struct ScaleSweepOptions {
  std::vector<std::int32_t> wire_counts{10'000};
  std::vector<std::int32_t> proc_counts{16, 64};
  /// Assignment policies to sweep per wires x procs combination.
  std::vector<ScaleAssignMode> modes{ScaleAssignMode::kGeographic};
  std::uint64_t seed = 0x5CA1EULL;
  std::int32_t iterations = 2;
  /// Grant batch for the dynamic locality/steal modes (cost-budgeted:
  /// a grant carries about this many mean-cost wires' worth of work).
  std::int32_t grant_batch = 16;
  /// Roam radius in mesh hops for the locality/steal modes: bounds how many
  /// distinct thieves replicate any donor region's tiles, which is what
  /// keeps dynamic resident memory near the geographic baseline.
  std::int32_t locality_radius = 2;
  /// Region-batched update packets (requires bounding-box structure).
  bool batch_updates = true;
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
  /// ScaleSweepOptions::modes, for bench gating. With the default modes
  /// list this is byte-identical to the pre-mode sweep.
  double headline_route_rps = 0.0;       ///< simulated wire routes per second
  std::uint64_t headline_traffic_bytes = 0;
  std::int64_t headline_resident_bytes = 0;
  std::int64_t headline_circuit_height = 0;
  /// One entry per mode for the last wires x procs combination that ran.
  std::vector<ScaleModeMetrics> headline_modes;
};

/// Sweeps proc_counts x wire_counts x modes, fanned over the process
/// SimPool (results are pool-width independent). Rows whose mesh cannot
/// band the circuit (more mesh rows than channels) are reported as skipped.
/// Columns: wires, procs, mode, CktHt, routes/sec, traffic per wire,
/// speedup vs the first proc count of that circuit in the same mode,
/// resident view memory, imbalance, and routed-wires min/max/stddev across
/// processors (the load-balance story next to the throughput story).
ScaleSweepResult run_scale_sweep(const ScaleSweepOptions& options);

/// True when two route sets are bit-identical (wire id, path cost, cells,
/// connections) — the fault-recovery invariant.
bool routes_identical(const std::vector<WireRoute>& a,
                      const std::vector<WireRoute>& b);

// --- E15: interconnect cost models (ISSUE 10) — the four MP update
//     protocols priced on {mesh, torus, fat-tree} x {fixed, md1, vc} ---
struct TopologySweepOptions {
  std::vector<std::int32_t> proc_counts{16};
  std::int32_t iterations = 2;
  std::int32_t fat_tree_arity = 2;
  /// Run with the reliable transport on and assert its conservation ledger
  /// balanced for every cell of the matrix.
  bool transport = true;
  /// Conservation checkpoint period of the per-run view-consistency
  /// checker.
  std::int32_t checkpoint_period = 4;
};

struct TopologySweepResult {
  Table table;
  /// Every run passed the view-consistency checker (and, with transport
  /// on, balanced the transport ledger) — the acceptance gate.
  bool all_ok = false;
  std::int32_t runs = 0;
  /// Summed per-link stall events across all runs (kFixed rows included:
  /// its stalls are head link waits).
  std::uint64_t total_stalls = 0;
};

/// Sweeps schedule x topology x cost model x procs, fanned over the
/// process SimPool (table bytes are pool-width independent). Columns:
/// schedule, topology, cost model, procs, CktHt, completion ms, traffic
/// KB, per-link max/mean utilization, links used, stalls, and the
/// consistency + ledger verdict.
TopologySweepResult run_topology_sweep(const Circuit& circuit,
                                       const TopologySweepOptions& options = {});

// --- E12: message software overhead (§5.1.1: packet assembly/disassembly
//     "take up to one fourth of the processing time" at frequent updates) ---
Table run_overhead_breakdown(const Circuit& circuit,
                             const ExperimentConfig& config = {});

// --- A1/A2: ablations ---
Table run_ablation_packet_structure(const Circuit& circuit,
                                    const ExperimentConfig& config = {});
Table run_ablation_protocols(const Circuit& circuit,
                             const ExperimentConfig& config = {});
Table run_ablation_topology(const Circuit& circuit,
                            const ExperimentConfig& config = {});
/// §4.2's two dynamic wire-distribution schemes (which CBS could not
/// simulate) vs the paper's static assignment.
Table run_ablation_dynamic_assignment(const Circuit& circuit,
                                      const ExperimentConfig& config = {});
/// §5.3's hierarchical shared memory argument quantified: remote-reference
/// fraction and NUMA memory time per wire assignment, plus snooping-bus
/// occupancy (§5.1.1 footnote 2).
Table run_hierarchical_shm(const Circuit& circuit,
                           const ExperimentConfig& config = {});
/// Router design ablation: pin decomposition (chain vs MST), congestion
/// pricing power, exploration width — sequential quality vs work.
Table run_ablation_router(const Circuit& circuit);
/// §3's "performing several iterations improves the final solution
/// quality": quality vs rip-up-and-reroute iteration count.
Table run_iteration_convergence(const Circuit& circuit);
/// §4.3.3's "we chose to have processors request updates for five wires at
/// a time": request lookahead sweep under the receiver schedule.
Table run_ablation_lookahead(const Circuit& circuit,
                             const ExperimentConfig& config = {});
/// §4.2's ThresholdCost knob as a continuous sweep: locality vs balance.
Table run_threshold_sweep(const Circuit& circuit,
                          const ExperimentConfig& config = {});
/// §4's central idea quantified: how stale the per-processor views end up
/// under each update schedule, next to the quality it buys.
Table run_view_staleness(const Circuit& circuit,
                         const ExperimentConfig& config = {});
/// §5.4 extended past the paper's 16 processors on a larger circuit.
Table run_scaling_large(const Circuit& circuit,
                        const ExperimentConfig& config = {});
/// Iterations x staleness: does rip-up-and-reroute still converge when the
/// views are stale? (MP sender schedule, iteration sweep.)
Table run_mp_iteration_sweep(const Circuit& circuit,
                             const ExperimentConfig& config = {});
/// The paper's footnote-3 assumption relaxed: coherence traffic with finite
/// LRU caches of various sizes vs the infinite-cache model.
Table run_ablation_cache_size(const Circuit& circuit,
                              const ExperimentConfig& config = {});
/// Robustness: the headline traffic hierarchy (shm > sender MP > receiver
/// MP) across independently seeded synthetic circuits.
Table run_seed_robustness(const ExperimentConfig& config = {});

// --- C1/C2/C3: checking subsystem (src/check) ---
/// Differential oracle: sequential vs shm vs the four message passing
/// schedules, with legality, quality-band, and view-consistency verdicts.
/// `faults` (optional) is installed into the message passing machines.
Table run_check_oracle(const Circuit& circuit, const ExperimentConfig& config = {},
                       const FaultPlan* faults = nullptr);
/// Fault-injection sweep: one row per fault class showing what the network
/// injected and which checker signature detected it.
Table run_check_faults(const Circuit& circuit, const ExperimentConfig& config = {});
/// Unlocked write-conflict scan of the shm reference trace per line size.
Table run_check_trace_scan(const Circuit& circuit,
                           const ExperimentConfig& config = {});
/// Reliable-transport recovery sweep: drop rate x update schedule with the
/// transport enabled. Each row reports the control-plane traffic the
/// recovery cost (retransmits, dedup discards, acks, overhead vs the
/// fault-free run) and asserts the convergence guarantee: routes, completion
/// time, and view staleness bit-identical to the same schedule's fault-free
/// run, with the transport ledger balanced.
Table run_fault_recovery_sweep(const Circuit& circuit,
                               const ExperimentConfig& config = {});

}  // namespace locus
