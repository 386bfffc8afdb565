#include "harness/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <iterator>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <variant>

#include "assign/locality.hpp"
#include "check/consistency.hpp"
#include "check/oracle.hpp"
#include "check/trace_scan.hpp"
#include "circuit/generator.hpp"
#include "circuit/hier_generator.hpp"
#include "coherence/bus.hpp"
#include "coherence/simulator.hpp"
#include "harness/paper_data.hpp"
#include "harness/sim_pool.hpp"
#include "msg/packets.hpp"
#include "route/sequential.hpp"
#include "shm/numa.hpp"
#include "support/assert.hpp"

namespace locus {

const char* assign_method_name(AssignMethod method) {
  switch (method) {
    case AssignMethod::kRoundRobin: return "round robin";
    case AssignMethod::kThreshold30: return "tc30";
    case AssignMethod::kThreshold1000: return "tc1000";
    case AssignMethod::kThresholdInf: return "inf";
  }
  LOCUS_UNREACHABLE("bad AssignMethod");
}

Assignment make_assignment(const Circuit& circuit, const Partition& partition,
                           AssignMethod method) {
  switch (method) {
    case AssignMethod::kRoundRobin:
      return assign_round_robin(circuit, partition.num_regions());
    case AssignMethod::kThreshold30:
      return assign_threshold_cost(circuit, partition, 30);
    case AssignMethod::kThreshold1000:
      return assign_threshold_cost(circuit, partition, 1000);
    case AssignMethod::kThresholdInf:
      return assign_threshold_cost(circuit, partition, kThresholdInfinity);
  }
  LOCUS_UNREACHABLE("bad AssignMethod");
}

MpConfig ExperimentConfig::mp(const UpdateSchedule& schedule) const {
  MpConfig config;
  config.schedule = schedule;
  config.iterations = iterations;
  return config;
}

ShmConfig ExperimentConfig::shm() const {
  ShmConfig config;
  config.procs = procs;
  config.iterations = iterations;
  return config;
}

namespace {

/// The paper's usual static assignment baseline (§5.1 runs all use "the
/// same static wire assignment"; Table 4 identifies it as TC = 1000).
constexpr AssignMethod kBaselineAssign = AssignMethod::kThreshold1000;

/// One message passing run, with the partition and static assignment it
/// ran on (the locality measure and the cost imbalance read them).
struct MpRun {
  Partition partition;
  Assignment assignment;
  MpRunResult result;
};

/// Runs `circuit` on a `procs`-region mesh under `mp`. The static
/// assignment is `assign`'s method, or ThresholdCost = that value (the
/// ThresholdCost sweep's thresholds are not all AssignMethods).
MpRun run_mp(const Circuit& circuit, std::int32_t procs, const MpConfig& mp,
             std::variant<AssignMethod, std::int64_t> assign = kBaselineAssign) {
  Partition partition(circuit.channels(), circuit.grids(),
                      MeshShape::for_procs(procs));
  Assignment assignment =
      std::holds_alternative<AssignMethod>(assign)
          ? make_assignment(circuit, partition, std::get<AssignMethod>(assign))
          : assign_threshold_cost(circuit, partition, std::get<std::int64_t>(assign));
  MpRunResult result = run_message_passing(circuit, partition, assignment, mp);
  return {std::move(partition), std::move(assignment), std::move(result)};
}

struct ShmTraffic {
  ShmRunResult run;
  std::vector<CoherenceTraffic> traffic;  ///< one per requested line size
};

/// One shm run of `circuit` from `method`'s static assignment, its trace
/// replayed at each of `line_sizes` (infinite caches, the paper's protocol).
ShmTraffic run_shm_traffic(const Circuit& circuit, const ExperimentConfig& config,
                           AssignMethod method,
                           const std::vector<std::int32_t>& line_sizes) {
  ShmConfig shm_config = config.shm();
  const Partition partition(circuit.channels(), circuit.grids(),
                            MeshShape::for_procs(config.procs));
  shm_config.assignment = make_assignment(circuit, partition, method);
  ShmTraffic out{.run = run_shared_memory(circuit, shm_config), .traffic = {}};
  out.traffic = sweep_line_sizes(out.run.trace, config.procs, line_sizes);
  return out;
}

double mbytes(const CoherenceTraffic& traffic) {
  return static_cast<double>(traffic.total_bytes()) / 1e6;
}

/// Appends the "CktHt", "Occup.", "MBytes" and "Time(s)" columns.
Table& run_columns(Table& t) {
  return t.column("CktHt").column("Occup.").column("MBytes").column("Time(s)");
}

/// Appends an MP run's cells for run_columns() to the current row.
Table& run_cells(Table& t, const MpRunResult& r) {
  return t.cell(static_cast<long long>(r.circuit_height))
      .cell(static_cast<long long>(r.occupancy_factor))
      .cell(r.mbytes(), 3).cell(r.seconds(), 3);
}

Table run_table1_sender_initiated(const PaperCircuits& c,
                                  const ExperimentConfig& config) {
  Table t;
  run_columns(t.column("SendRmt").column("SendLoc"))
      .column("paper:Ht").column("paper:MB").column("paper:T");
  const auto runs = map_indexed(paper::kTable1.size(), [&](std::size_t i) {
    const paper::SenderRow& row = paper::kTable1[i];
    return run_mp(c.bnre, config.procs,
                  config.mp(UpdateSchedule::sender(row.send_rmt, row.send_loc)))
        .result;
  });
  std::int32_t last_rmt = -1;
  for (std::size_t i = 0; i < paper::kTable1.size(); ++i) {
    const paper::SenderRow& row = paper::kTable1[i];
    if (row.send_rmt != last_rmt && last_rmt != -1) t.separator();
    last_rmt = row.send_rmt;
    run_cells(t.row().cell(row.send_rmt).cell(row.send_loc), runs[i])
        .cell(row.ckt_height).cell(row.mbytes, 3).cell(row.seconds, 3);
  }
  return t;
}

Table run_table2_receiver_initiated(const PaperCircuits& c,
                                    const ExperimentConfig& config) {
  Table t;
  run_columns(t.column("ReqLoc").column("ReqRmt"))
      .column("paper:Ht").column("paper:MB").column("paper:T");
  const auto runs = map_indexed(paper::kTable2.size(), [&](std::size_t i) {
    const paper::ReceiverRow& row = paper::kTable2[i];
    return run_mp(c.bnre, config.procs,
                  config.mp(UpdateSchedule::receiver(row.req_loc, row.req_rmt)))
        .result;
  });
  std::int32_t last_loc = -1;
  for (std::size_t i = 0; i < paper::kTable2.size(); ++i) {
    const paper::ReceiverRow& row = paper::kTable2[i];
    if (row.req_loc != last_loc && last_loc != -1) t.separator();
    last_loc = row.req_loc;
    run_cells(t.row().cell(row.req_loc).cell(row.req_rmt), runs[i])
        .cell(row.ckt_height).cell(row.mbytes, 3).cell(row.seconds, 3);
  }
  return t;
}

/// §5.1.3: blocking vs non-blocking receivers on the busy Table 2 schedules.
Table run_sec513_blocking(const PaperCircuits& c, const ExperimentConfig& config) {
  Table t;
  t.column("ReqLoc").column("ReqRmt").column("NB time").column("B time")
      .column("slowdown").column("NB Ht").column("B Ht");
  std::vector<paper::ReceiverRow> rows;
  for (const paper::ReceiverRow& row : paper::kTable2) {
    if (row.req_rmt != 5 && row.req_rmt != 10) continue;  // keep busy schedules
    rows.push_back(row);
  }
  // Two independent runs (non-blocking at even indices, blocking at odd)
  // per schedule row.
  const auto runs = map_indexed(rows.size() * 2, [&](std::size_t i) {
    const paper::ReceiverRow& row = rows[i / 2];
    return run_mp(c.bnre, config.procs,
                  config.mp(UpdateSchedule::receiver(row.req_loc, row.req_rmt,
                                                     i % 2 == 1)))
        .result;
  });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const paper::ReceiverRow& row = rows[i];
    const MpRunResult& nb = runs[2 * i];
    const MpRunResult& b = runs[2 * i + 1];
    const double slowdown = nb.completion_ns == 0
                                ? 0.0
                                : static_cast<double>(b.completion_ns) /
                                          static_cast<double>(nb.completion_ns) -
                                      1.0;
    t.row().cell(row.req_loc).cell(row.req_rmt)
        .cell(nb.seconds(), 3).cell(b.seconds(), 3)
        .cell(format_fixed(slowdown * 100.0, 1) + "%")
        .cell(static_cast<long long>(nb.circuit_height))
        .cell(static_cast<long long>(b.circuit_height));
  }
  return t;
}

Table run_sec513_mixed(const PaperCircuits& c, const ExperimentConfig& config) {
  UpdateSchedule mixed;
  mixed.send_loc_period = paper::kMixedSendLoc;
  mixed.send_rmt_period = paper::kMixedSendRmt;
  mixed.req_loc_requests = paper::kMixedReqLoc;
  mixed.req_rmt_touches = paper::kMixedReqRmt;

  Table t;
  run_columns(t.column("schedule", Align::kLeft));
  const std::pair<const char*, UpdateSchedule> cases[] = {
      {"sender (rmt=2, loc=5)", UpdateSchedule::sender(2, 5)},
      {"receiver (loc=1, rmt=5)", UpdateSchedule::receiver(1, 5)},
      {"mixed (5,2,1,5)", mixed},
  };
  const auto runs = map_indexed(std::size(cases), [&](std::size_t i) {
    return run_mp(c.bnre, config.procs, config.mp(cases[i].second)).result;
  });
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    run_cells(t.row().cell(cases[i].first), runs[i]);
  }
  return t;
}

/// Table 3's shm run: the bnrE trace replayed at the paper's line sizes.
ShmTraffic table3_traffic(const PaperCircuits& c, const ExperimentConfig& config) {
  std::vector<std::int32_t> sizes;
  for (const paper::LineSizeRow& row : paper::kTable3) sizes.push_back(row.line_size);
  return run_shm_traffic(c.bnre, config, kBaselineAssign, sizes);
}

Table run_table3_line_size(const PaperCircuits& c, const ExperimentConfig& config) {
  const ShmTraffic shm = table3_traffic(c, config);
  Table t;
  t.column("line size").column("MBytes").column("paper:MB").column("write frac");
  for (std::size_t i = 0; i < paper::kTable3.size(); ++i) {
    t.row().cell(paper::kTable3[i].line_size).cell(mbytes(shm.traffic[i]), 2)
        .cell(paper::kTable3[i].mbytes, 2)
        .cell(shm.traffic[i].write_fraction(), 2);
  }
  return t;
}

Table run_table3_breakdown(const PaperCircuits& c, const ExperimentConfig& config) {
  const ShmTraffic shm = table3_traffic(c, config);
  Table t;
  t.column("line size").column("cold fetch").column("refetch")
      .column("write fetch").column("word writes").column("flushes")
      .column("invalidations");
  for (std::size_t i = 0; i < paper::kTable3.size(); ++i) {
    const CoherenceTraffic& traffic = shm.traffic[i];
    t.row().cell(paper::kTable3[i].line_size)
        .cell(format_mbytes(traffic.cold_fetch_bytes))
        .cell(format_mbytes(traffic.refetch_bytes))
        .cell(format_mbytes(traffic.write_fetch_bytes))
        .cell(format_mbytes(traffic.word_write_bytes))
        .cell(format_mbytes(traffic.read_flush_bytes + traffic.write_flush_bytes))
        .cell(static_cast<unsigned long long>(traffic.invalidation_msgs));
  }
  return t;
}

Table run_sec52_comparison(const PaperCircuits& c, const ExperimentConfig& config) {
  // Representative points: the paper's best-height sender schedule, the
  // lowest-traffic receiver schedule, and shm at 8-byte lines.
  const UpdateSchedule schedules[] = {UpdateSchedule::sender(2, 10),
                                      UpdateSchedule::receiver(1, 30)};
  MpRunResult mp[2];
  std::optional<ShmTraffic> shm_run;
  run_indexed(3, [&](std::size_t i) {
    if (i < 2) {
      mp[i] = run_mp(c.bnre, config.procs, config.mp(schedules[i])).result;
    } else {
      shm_run.emplace(run_shm_traffic(c.bnre, config, kBaselineAssign, {8}));
    }
  });
  const MpRunResult& sender = mp[0];
  const MpRunResult& receiver = mp[1];
  const ShmTraffic& shm = *shm_run;

  Table t;
  t.column("approach", Align::kLeft).column("CktHt").column("MBytes")
      .column("vs shm traffic");
  const double shm_mb = mbytes(shm.traffic[0]);
  auto ratio = [&](double mb) {
    return mb == 0.0 ? std::string("-") : format_fixed(shm_mb / mb, 1) + "x";
  };
  t.row().cell("shared memory (8B lines)")
      .cell(static_cast<long long>(shm.run.circuit_height))
      .cell(shm_mb, 3).cell("1.0x");
  t.row().cell("MP sender (rmt=2, loc=10)")
      .cell(static_cast<long long>(sender.circuit_height))
      .cell(sender.mbytes(), 3).cell(ratio(sender.mbytes()));
  t.row().cell("MP receiver (loc=1, rmt=30)")
      .cell(static_cast<long long>(receiver.circuit_height))
      .cell(receiver.mbytes(), 3).cell(ratio(receiver.mbytes()));
  return t;
}

/// Tables 4/5 rows name their circuit as the paper does.
const Circuit& paper_circuit(const PaperCircuits& c, const char* name) {
  return std::string(name) == "bnrE" ? c.bnre : c.mdc;
}

Table run_table4_locality_mp(const PaperCircuits& c, const ExperimentConfig& config) {
  Table t;
  t.column("circuit", Align::kLeft).column("method", Align::kLeft)
      .column("CktHt").column("MBytes").column("Time(s)")
      .column("paper:Ht").column("paper:MB").column("paper:T");
  const MpConfig mp = config.mp(UpdateSchedule::sender(2, 10));
  const auto runs = map_indexed(paper::kTable4.size(), [&](std::size_t i) {
    const paper::LocalityMpRow& row = paper::kTable4[i];
    return run_mp(paper_circuit(c, row.circuit), config.procs, mp, row.method)
        .result;
  });
  for (std::size_t i = 0; i < paper::kTable4.size(); ++i) {
    const paper::LocalityMpRow& row = paper::kTable4[i];
    if (row.method == AssignMethod::kRoundRobin && std::string(row.circuit) == "MDC") {
      t.separator();
    }
    const MpRunResult& r = runs[i];
    t.row().cell(row.circuit).cell(assign_method_name(row.method))
        .cell(static_cast<long long>(r.circuit_height))
        .cell(r.mbytes(), 3).cell(r.seconds(), 3)
        .cell(row.ckt_height).cell(row.mbytes, 3).cell(row.seconds, 3);
  }
  return t;
}

/// §5.3.1: receiver-initiated traffic drops up to 63% going fully local.
Table run_table4_receiver_locality(const PaperCircuits& c,
                                   const ExperimentConfig& config) {
  const MpConfig mp = config.mp(UpdateSchedule::receiver(1, 5));
  const auto runs = map_indexed(2, [&](std::size_t i) {
    return run_mp(c.bnre, config.procs, mp,
                  i == 0 ? AssignMethod::kRoundRobin : AssignMethod::kThresholdInf)
        .result;
  });
  const MpRunResult& rr = runs[0];
  const MpRunResult& local = runs[1];
  const double drop =
      rr.bytes_transferred == 0
          ? 0.0
          : 1.0 - static_cast<double>(local.bytes_transferred) /
                      static_cast<double>(rr.bytes_transferred);
  Table t;
  t.column("method", Align::kLeft).column("MBytes").column("traffic drop")
      .column("paper says");
  t.row().cell("round robin").cell(rr.mbytes(), 3).cell("-").cell("-");
  t.row().cell("fully local (inf)").cell(local.mbytes(), 3)
      .cell(format_fixed(drop * 100.0, 1) + "%")
      .cell("up to 63%");
  return t;
}

Table run_table5_locality_shm(const PaperCircuits& c,
                              const ExperimentConfig& config) {
  Table t;
  t.column("circuit", Align::kLeft).column("method", Align::kLeft)
      .column("CktHt").column("MBytes").column("paper:Ht").column("paper:MB");
  const auto runs = map_indexed(paper::kTable5.size(), [&](std::size_t i) {
    const paper::LocalityShmRow& row = paper::kTable5[i];
    return run_shm_traffic(paper_circuit(c, row.circuit), config, row.method, {8});
  });
  for (std::size_t i = 0; i < paper::kTable5.size(); ++i) {
    const paper::LocalityShmRow& row = paper::kTable5[i];
    if (row.method == AssignMethod::kRoundRobin && std::string(row.circuit) == "MDC") {
      t.separator();
    }
    const ShmTraffic& shm = runs[i];
    t.row().cell(row.circuit).cell(assign_method_name(row.method))
        .cell(static_cast<long long>(shm.run.circuit_height))
        .cell(mbytes(shm.traffic[0]), 3)
        .cell(row.ckt_height).cell(row.mbytes, 3);
  }
  return t;
}

Table run_locality_measure(const PaperCircuits& c, const ExperimentConfig& config) {
  Table t;
  t.column("circuit", Align::kLeft).column("method", Align::kLeft)
      .column("measure").column("paper");
  const MpConfig mp = config.mp(UpdateSchedule::sender(2, 10));
  struct LocCase {
    const Circuit* circuit;
    AssignMethod method;
  };
  std::vector<LocCase> cases;
  for (const Circuit* circuit : {&c.bnre, &c.mdc}) {
    for (AssignMethod method :
         {AssignMethod::kRoundRobin, AssignMethod::kThreshold30,
          AssignMethod::kThresholdInf}) {
      cases.push_back({circuit, method});
    }
  }
  // The measure needs the run's assignment/partition, so it is computed
  // inside each job and only the scalar crosses the join.
  const auto measures = map_indexed(cases.size(), [&](std::size_t i) {
    const MpRun run = run_mp(*cases[i].circuit, config.procs, mp, cases[i].method);
    return locality_measure(run.result.routes, run.assignment, run.partition);
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const LocCase& lc = cases[i];
    std::string paper_value = "-";
    if (lc.method == AssignMethod::kThresholdInf) {
      paper_value =
          format_fixed(lc.circuit == &c.bnre ? paper::kLocalityMeasureBnre
                                             : paper::kLocalityMeasureMdc,
                       2);
    }
    t.row().cell(lc.circuit->name()).cell(assign_method_name(lc.method))
        .cell(measures[i], 2).cell(paper_value);
    if (lc.circuit == &c.bnre && i + 1 < cases.size() &&
        cases[i + 1].circuit != &c.bnre) {
      t.separator();
    }
  }
  return t;
}

Table run_table6_scaling(const PaperCircuits& c, const ExperimentConfig& config) {
  Table t;
  run_columns(t.column("procs"))
      .column("paper:Ht").column("paper:MB").column("paper:T");
  const MpConfig mp = config.mp(UpdateSchedule::sender(2, 10));
  const auto runs = map_indexed(paper::kTable6.size(), [&](std::size_t i) {
    return run_mp(c.bnre, paper::kTable6[i].procs, mp).result;
  });
  for (std::size_t i = 0; i < paper::kTable6.size(); ++i) {
    const paper::ScalingRow& row = paper::kTable6[i];
    run_cells(t.row().cell(row.procs), runs[i])
        .cell(row.ckt_height == 0 ? std::string("?")
                                  : std::to_string(row.ckt_height))
        .cell(row.mbytes, 3).cell(row.seconds, 3);
  }
  return t;
}

Table run_speedup(const PaperCircuits& c, const ExperimentConfig& config) {
  Table t;
  t.column("circuit", Align::kLeft).column("procs").column("Time(s)")
      .column("speedup").column("paper@16");
  const MpConfig mp = config.mp(UpdateSchedule::sender(2, 10));
  struct SpeedCase {
    const Circuit* circuit;
    std::int32_t procs;
  };
  std::vector<SpeedCase> cases;
  for (const Circuit* circuit : {&c.bnre, &c.mdc}) {
    for (std::int32_t procs : {2, 4, 9, 16}) cases.push_back({circuit, procs});
  }
  const auto runs = map_indexed(cases.size(), [&](std::size_t i) {
    return run_mp(*cases[i].circuit, cases[i].procs, mp).result;
  });
  std::size_t idx = 0;
  for (const Circuit* circuit : {&c.bnre, &c.mdc}) {
    double t2 = 0.0;
    for (std::int32_t procs : {2, 4, 9, 16}) {
      const MpRunResult& r = runs[idx++];
      if (procs == 2) t2 = r.seconds();
      // The paper computes speedup relative to the two-processor run, x2.
      const double speedup = r.seconds() == 0.0 ? 0.0 : 2.0 * t2 / r.seconds();
      std::string paper_value = "-";
      if (procs == 16) {
        paper_value = format_fixed(circuit == &c.bnre ? paper::kSpeedup16Bnre
                                                      : paper::kSpeedup16Mdc,
                                   1);
      }
      t.row().cell(circuit->name()).cell(procs).cell(r.seconds(), 3)
          .cell(speedup, 1).cell(paper_value);
    }
    if (circuit == &c.bnre) t.separator();
  }
  return t;
}

/// §4.2's two dynamic wire-distribution schemes (which CBS could not
/// simulate) vs the paper's static assignment.
Table run_ablation_dynamic_assignment(const PaperCircuits& c,
                                      const ExperimentConfig& config) {
  Table t;
  run_columns(t.column("wire distribution", Align::kLeft)).column("packets");
  const std::pair<const char*, WireAssignmentMode> cases[] = {
      {"static (ThresholdCost=1000)", WireAssignmentMode::kStatic},
      {"dynamic, polled between wires", WireAssignmentMode::kDynamicPolled},
      {"dynamic, reception interrupts", WireAssignmentMode::kDynamicInterrupt},
  };
  const auto runs = map_indexed(std::size(cases), [&](std::size_t i) {
    MpConfig mp = config.mp(UpdateSchedule::sender(2, 10));
    mp.assignment_mode = cases[i].second;
    return run_mp(c.bnre, config.procs, mp).result;
  });
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    run_cells(t.row().cell(cases[i].first), runs[i])
        .cell(static_cast<unsigned long long>(runs[i].network.packets));
  }
  return t;
}

/// §5.3's hierarchical shared memory argument quantified: remote-reference
/// fraction and NUMA memory time per wire assignment, plus snooping-bus
/// occupancy (§5.1.1 footnote 2).
Table run_hierarchical_shm(const PaperCircuits& c, const ExperimentConfig& config) {
  Table t;
  t.column("assignment", Align::kLeft).column("remote refs")
      .column("NUMA mem(s)").column("bus busy(s)").column("bus util");
  const Partition partition(c.bnre.channels(), c.bnre.grids(),
                            MeshShape::for_procs(config.procs));
  constexpr AssignMethod kMethods[] = {
      AssignMethod::kRoundRobin, AssignMethod::kThreshold30,
      AssignMethod::kThreshold1000, AssignMethod::kThresholdInf};
  const auto runs = map_indexed(std::size(kMethods), [&](std::size_t i) {
    return run_shm_traffic(c.bnre, config, kMethods[i], {8});
  });
  for (std::size_t i = 0; i < std::size(kMethods); ++i) {
    const AssignMethod method = kMethods[i];
    const ShmTraffic& shm = runs[i];
    NumaEstimate numa = estimate_numa(shm.run.trace, partition);
    BusEstimate bus = estimate_bus(shm.traffic[0]);
    t.row().cell(assign_method_name(method))
        .cell(format_fixed(numa.remote_fraction() * 100.0, 1) + "%")
        .cell(static_cast<double>(numa.memory_ns) / 1e9, 3)
        .cell(static_cast<double>(bus.busy_ns()) / 1e9, 3)
        .cell(format_fixed(bus.utilization(shm.run.completion_ns) * 100.0, 1) +
              "%");
  }
  return t;
}

/// Router design ablation: pin decomposition (chain vs MST), congestion
/// pricing power, exploration width — sequential quality vs work.
Table run_ablation_router(const PaperCircuits& c, const ExperimentConfig&) {
  Table t;
  t.column("router variant", Align::kLeft).column("CktHt").column("Occup.")
      .column("probes");
  RouterParams base;
  RouterParams mst = base;
  mst.decomposition = Decomposition::kMst;
  RouterParams quad = base;
  quad.explorer.congestion_power = 2;
  RouterParams thorough = base;
  thorough.explorer = ExplorerParams::thorough();
  RouterParams all = base;
  all.decomposition = Decomposition::kMst;
  all.explorer = ExplorerParams::thorough();
  all.explorer.congestion_power = 2;
  const std::pair<const char*, RouterParams> cases[] = {
      {"baseline (chain, linear, slack 1)", base},
      {"MST pin decomposition", mst},
      {"quadratic congestion pricing", quad},
      {"thorough exploration", thorough},
      {"all three combined", all},
  };
  const auto runs = map_indexed(std::size(cases), [&](std::size_t i) {
    SequentialParams sp;
    sp.router = cases[i].second;
    return route_sequential(c.bnre, sp);
  });
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const SequentialResult& r = runs[i];
    t.row().cell(cases[i].first)
        .cell(static_cast<long long>(r.circuit_height))
        .cell(static_cast<long long>(r.occupancy_factor))
        .cell(static_cast<long long>(r.work.probes));
  }
  return t;
}

/// §3's "performing several iterations improves the final solution
/// quality": quality vs rip-up-and-reroute iteration count.
Table run_iteration_convergence(const PaperCircuits& c, const ExperimentConfig&) {
  Table t;
  t.column("iterations").column("CktHt").column("Occup.").column("probes");
  constexpr std::int32_t kIterations[] = {1, 2, 3, 4, 6};
  const auto runs = map_indexed(std::size(kIterations), [&](std::size_t i) {
    SequentialParams sp;
    sp.iterations = kIterations[i];
    return route_sequential(c.bnre, sp);
  });
  for (std::size_t i = 0; i < std::size(kIterations); ++i) {
    const std::int32_t iterations = kIterations[i];
    const SequentialResult& r = runs[i];
    t.row().cell(iterations).cell(static_cast<long long>(r.circuit_height))
        .cell(static_cast<long long>(r.occupancy_factor))
        .cell(static_cast<long long>(r.work.probes));
  }
  return t;
}

/// §4.3.3's "we chose to have processors request updates for five wires at
/// a time": request lookahead sweep under the receiver schedule.
Table run_ablation_lookahead(const PaperCircuits& c, const ExperimentConfig& config) {
  Table t;
  run_columns(t.column("lookahead (wires)"));
  constexpr std::int32_t kLookaheads[] = {1, 3, 5, 10, 20};
  const auto runs = map_indexed(std::size(kLookaheads), [&](std::size_t i) {
    UpdateSchedule schedule = UpdateSchedule::receiver(1, 5);
    schedule.request_lookahead = kLookaheads[i];
    return run_mp(c.bnre, config.procs, config.mp(schedule)).result;
  });
  for (std::size_t i = 0; i < std::size(kLookaheads); ++i) {
    run_cells(t.row().cell(kLookaheads[i]), runs[i]);
  }
  return t;
}

/// §4.2's ThresholdCost knob as a continuous sweep: locality vs balance.
Table run_threshold_sweep(const PaperCircuits& c, const ExperimentConfig& config) {
  Table t;
  t.column("ThresholdCost", Align::kLeft).column("CktHt").column("MBytes")
      .column("Time(s)").column("cost imbalance");
  const MpConfig mp = config.mp(UpdateSchedule::sender(2, 10));
  std::vector<std::pair<std::string, std::int64_t>> cases;
  for (std::int64_t threshold : {std::int64_t{1}, std::int64_t{10},
                                 std::int64_t{30}, std::int64_t{100},
                                 std::int64_t{300}, std::int64_t{1000},
                                 std::int64_t{3000}}) {
    cases.emplace_back(std::to_string(threshold), threshold);
  }
  cases.emplace_back("infinity", kThresholdInfinity);
  const auto runs = map_indexed(cases.size(), [&](std::size_t i) {
    return run_mp(c.bnre, config.procs, mp, cases[i].second);
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const MpRunResult& r = runs[i].result;
    t.row().cell(cases[i].first).cell(static_cast<long long>(r.circuit_height))
        .cell(r.mbytes(), 3).cell(r.seconds(), 3)
        .cell(runs[i].assignment.cost_imbalance(c.bnre), 2);
  }
  return t;
}

/// §4's central idea quantified: how stale the per-processor views end up
/// under each update schedule, next to the quality it buys.
Table run_view_staleness(const PaperCircuits& c, const ExperimentConfig& config) {
  Table t;
  t.column("schedule", Align::kLeft).column("view MAE").column("own-region MAE")
      .column("CktHt").column("Occup.");
  const std::pair<const char*, UpdateSchedule> cases[] = {
      {"no updates", UpdateSchedule{}},
      {"sender (10,20)", UpdateSchedule::sender(10, 20)},
      {"sender (2,10)", UpdateSchedule::sender(2, 10)},
      {"sender (1,1)", UpdateSchedule::sender(1, 1)},
      {"receiver (1,30)", UpdateSchedule::receiver(1, 30)},
      {"receiver (1,5)", UpdateSchedule::receiver(1, 5)},
      {"mixed (5,2,1,5)", [] {
         UpdateSchedule s = UpdateSchedule::sender(2, 5);
         s.req_loc_requests = 1;
         s.req_rmt_touches = 5;
         return s;
       }()},
  };
  const auto runs = map_indexed(std::size(cases), [&](std::size_t i) {
    return run_mp(c.bnre, config.procs, config.mp(cases[i].second)).result;
  });
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const MpRunResult& r = runs[i];
    t.row().cell(cases[i].first).cell(r.view_staleness, 3)
        .cell(r.own_region_staleness, 3)
        .cell(static_cast<long long>(r.circuit_height))
        .cell(static_cast<long long>(r.occupancy_factor));
  }
  return t;
}

/// §5.4 extended past the paper's 16 processors on the larger
/// industrial-like circuit, which this table alone reads.
Table run_scaling_large(const PaperCircuits&, const ExperimentConfig& config) {
  const Circuit circuit = make_industrial_like();
  Table t;
  run_columns(t.column("procs")).column("speedup");
  const MpConfig mp = config.mp(UpdateSchedule::sender(2, 10));
  constexpr std::int32_t kProcs[] = {4, 16, 36, 64};
  const auto runs = map_indexed(std::size(kProcs), [&](std::size_t i) {
    return run_mp(circuit, kProcs[i], mp).result;
  });
  double t4 = 0.0;
  for (std::size_t i = 0; i < std::size(kProcs); ++i) {
    const MpRunResult& r = runs[i];
    if (kProcs[i] == 4) t4 = r.seconds();
    const double speedup = r.seconds() == 0.0 ? 0.0 : 4.0 * t4 / r.seconds();
    run_cells(t.row().cell(kProcs[i]), r).cell(speedup, 1);
  }
  return t;
}

/// Iterations x staleness: does rip-up-and-reroute still converge when the
/// views are stale? (MP sender schedule, iteration sweep.)
Table run_mp_iteration_sweep(const PaperCircuits& c, const ExperimentConfig& config) {
  Table t;
  run_columns(t.column("iterations"));
  constexpr std::int32_t kSweepIters[] = {1, 2, 3, 4};
  const auto runs = map_indexed(std::size(kSweepIters), [&](std::size_t i) {
    MpConfig mp = config.mp(UpdateSchedule::sender(2, 10));
    mp.iterations = kSweepIters[i];
    return run_mp(c.bnre, config.procs, mp).result;
  });
  for (std::size_t i = 0; i < std::size(kSweepIters); ++i) {
    run_cells(t.row().cell(kSweepIters[i]), runs[i]);
  }
  return t;
}

/// The paper's footnote-3 assumption relaxed: coherence traffic with finite
/// LRU caches of various sizes vs the infinite-cache model.
Table run_ablation_cache_size(const PaperCircuits& c,
                              const ExperimentConfig& config) {
  const ShmTraffic shm = run_shm_traffic(c.bnre, config, kBaselineAssign, {});
  Table t;
  t.column("cache per proc", Align::kLeft).column("MBytes")
      .column("evict WB MB").column("evictions");
  // One reference trace, five independent replays: the replays share only
  // the const trace, so they fan out too.
  const std::pair<const char*, std::int32_t> cases[] = {
      {"1 KB", 128},           {"4 KB", 512},
      {"16 KB", 2048},         {"64 KB", 8192},
      {"infinite (paper)", 0},
  };
  const auto traffics = map_indexed(std::size(cases), [&](std::size_t i) {
    return sweep_line_sizes(shm.run.trace, config.procs, {8},
                            ProtocolKind::kWriteBackInvalidate, cases[i].second)[0];
  });
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const CoherenceTraffic& traffic = traffics[i];
    t.row().cell(cases[i].first).cell(mbytes(traffic), 3)
        .cell(static_cast<double>(traffic.eviction_writeback_bytes) / 1e6, 3)
        .cell(static_cast<unsigned long long>(traffic.capacity_evictions));
  }
  return t;
}

/// Robustness: the headline traffic hierarchy (shm > sender MP > receiver
/// MP) across independently seeded synthetic circuits, which this table
/// alone builds.
Table run_seed_robustness(const PaperCircuits&, const ExperimentConfig& config) {
  Table t;
  t.column("seed", Align::kLeft).column("shm MB").column("sender MB")
      .column("receiver MB").column("hierarchy holds");
  constexpr std::uint64_t kSeeds[] = {0xB9E5EED5ULL, 0x1ULL, 0x2ULL, 0x3ULL,
                                      0x5EEDULL};
  // Each seed generates its own circuit and runs all three engines on it:
  // one self-contained job per seed.
  struct SeedOut {
    double shm_mb;
    double sender_mb;
    double receiver_mb;
  };
  const auto runs = map_indexed(std::size(kSeeds), [&](std::size_t s) {
    // bnrE's shape (the generator's defaults), reseeded.
    const Circuit circuit = generate_circuit({.name = "seeded", .seed = kSeeds[s]});
    const auto mp_mbytes = [&](const UpdateSchedule& schedule) {
      return run_mp(circuit, config.procs, config.mp(schedule)).result.mbytes();
    };
    return SeedOut{
        mbytes(run_shm_traffic(circuit, config, kBaselineAssign, {8}).traffic[0]),
        mp_mbytes(UpdateSchedule::sender(2, 10)),
        mp_mbytes(UpdateSchedule::receiver(1, 5))};
  });
  for (std::size_t s = 0; s < std::size(kSeeds); ++s) {
    const SeedOut& r = runs[s];
    const bool holds = r.shm_mb > r.sender_mb && r.sender_mb > r.receiver_mb;
    char label[32];
    std::snprintf(label, sizeof label, "0x%llX",
                  static_cast<unsigned long long>(kSeeds[s]));
    t.row().cell(label).cell(r.shm_mb, 3).cell(r.sender_mb, 3)
        .cell(r.receiver_mb, 3).cell(holds ? "yes" : "NO");
  }
  return t;
}

}  // namespace

const char* scale_assign_mode_name(ScaleAssignMode mode) {
  switch (mode) {
    case ScaleAssignMode::kGeographic: return "geo";
    case ScaleAssignMode::kDynamicFifo: return "dyn-fifo";
    case ScaleAssignMode::kDynamicLocality: return "dyn-local";
  }
  return "?";
}

namespace {

// Fixed knobs of run_scale_sweep.
constexpr std::uint64_t kScaleSeed = 0x5CA1EULL;
constexpr std::int32_t kScaleIterations = 2;
/// Region-batched update packets (requires bounding-box structure).
constexpr bool kScaleBatchUpdates = true;
/// Grant batch of the dynamic locality mode (cost-budgeted: a grant
/// carries about this many mean-cost wires' worth of work).
constexpr std::int32_t kScaleGrantBatch = 16;
/// Roam radius in mesh hops of the dynamic locality mode: bounds how many
/// processors replicate any region's tiles, which is what keeps dynamic
/// resident memory near the geographic baseline.
constexpr std::int32_t kScaleLocalityRadius = 2;

}  // namespace

ScaleSweepResult run_scale_sweep(const ScaleSweepOptions& options) {
  LOCUS_ASSERT(!options.wire_counts.empty());
  LOCUS_ASSERT(!options.proc_counts.empty());
  LOCUS_ASSERT(!options.modes.empty());
  ScaleSweepResult out;
  Table& t = out.table;
  t.column("wires").column("procs").column("mode", Align::kLeft).column("CktHt")
      .column("routes/s").column("B/wire").column("speedup").column("view MB")
      .column("imbal").column("rtd min").column("rtd max").column("rtd sd");
  const UpdateSchedule schedule = UpdateSchedule::sender(2, 10);

  // Each circuit is generated once up front; the fanned jobs only read it.
  std::vector<Circuit> circuits;
  circuits.reserve(options.wire_counts.size());
  for (std::int32_t wires : options.wire_counts) {
    circuits.push_back(make_scale_circuit(wires, kScaleSeed));
  }

  struct Job {
    std::size_t ckt = 0;
    std::int32_t wires = 0;
    std::int32_t procs = 0;
    ScaleAssignMode mode = ScaleAssignMode::kGeographic;
    bool skipped = false;
  };
  std::vector<Job> jobs;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    for (std::int32_t procs : options.proc_counts) {
      const MeshShape mesh = MeshShape::for_procs(procs);
      const bool skipped = mesh.rows > circuits[c].channels() ||
                           mesh.cols > circuits[c].grids();
      for (ScaleAssignMode mode : options.modes) {
        jobs.push_back({c, options.wire_counts[c], procs, mode, skipped});
      }
    }
  }

  struct RunOut {
    double seconds = 0.0;
    double bytes_per_wire = 0.0;
    ScaleModeMetrics m;
  };
  // Fanned out by map_indexed; every job is an independent
  // deterministic simulation, so the sweep is pool-width independent.
  const auto runs = map_indexed(jobs.size(), [&](std::size_t i) {
    RunOut o;
    const Job& job = jobs[i];
    if (job.skipped) return o;
    const Circuit& circuit = circuits[job.ckt];
    const MeshShape mesh = MeshShape::for_procs(job.procs);
    const Partition partition(circuit.channels(), circuit.grids(), mesh);
    // ThresholdCost-infinity (fully geographic) rather than the paper's
    // tc1000 baseline: tc1000 round-robins every chip-spanning wire, so
    // each node commits routes across the whole grid and the tiled views
    // converge back to dense. Locality-preserving assignment is exactly
    // what §5.4 prescribes for larger machines, and it is what keeps
    // per-view resident memory bounded by the node's neighborhood. The
    // dynamic modes recover its lost load balance without densifying: the
    // queue owner scores candidates against each requester's resident
    // tiles (DESIGN.md §11).
    const Assignment assignment =
        make_assignment(circuit, partition, AssignMethod::kThresholdInf);
    MpConfig config;
    config.schedule = schedule;
    config.iterations = kScaleIterations;
    config.shard.batch_updates = kScaleBatchUpdates;
    config.link_cost.kind = options.cost_model;
    switch (job.mode) {
      case ScaleAssignMode::kGeographic:
        break;
      case ScaleAssignMode::kDynamicFifo:
        config.assignment_mode = WireAssignmentMode::kDynamicInterrupt;
        break;
      case ScaleAssignMode::kDynamicLocality:
        config.assignment_mode = WireAssignmentMode::kDynamicInterrupt;
        config.dynamic.policy = GrantPolicy::kLocality;
        config.dynamic.grant_batch = kScaleGrantBatch;
        config.dynamic.locality_radius = kScaleLocalityRadius;
        break;
    }
    const MpRunResult r =
        run_message_passing(circuit, partition, assignment, config);
    o.seconds = r.seconds();
    o.bytes_per_wire = static_cast<double>(r.bytes_transferred) /
                       static_cast<double>(circuit.num_wires());
    ScaleModeMetrics& m = o.m;
    m.mode = job.mode;
    const double routed_total = static_cast<double>(circuit.num_wires()) *
                                static_cast<double>(kScaleIterations);
    m.route_rps = o.seconds == 0.0 ? 0.0 : routed_total / o.seconds;
    m.traffic_bytes = r.bytes_transferred;
    m.resident_bytes = r.view_resident_bytes;
    m.circuit_height = r.circuit_height;
    m.routed_min = r.routed_per_proc.empty() ? 0 : r.routed_per_proc.front();
    double sum = 0.0;
    for (std::int64_t v : r.routed_per_proc) {
      m.routed_min = std::min(m.routed_min, v);
      m.routed_max = std::max(m.routed_max, v);
      sum += static_cast<double>(v);
    }
    const double n = static_cast<double>(r.routed_per_proc.size());
    const double mean = n == 0.0 ? 0.0 : sum / n;
    double var = 0.0;
    for (std::int64_t v : r.routed_per_proc) {
      const double d = static_cast<double>(v) - mean;
      var += d * d;
    }
    m.routed_stddev = n == 0.0 ? 0.0 : std::sqrt(var / n);
    // For the static mode the achieved balance equals the assignment's
    // prediction, so report Assignment::cost_imbalance; the dynamic modes
    // report the max/mean ratio of the per-processor routed counts.
    m.imbalance = job.mode == ScaleAssignMode::kGeographic
                      ? assignment.cost_imbalance(circuit)
                      : (mean == 0.0 ? 0.0 :
                         static_cast<double>(m.routed_max) / mean);
    return o;
  });

  // Serial table build in submission order keeps the output byte-identical
  // at any pool width.
  std::size_t prev_ckt = 0;
  std::vector<double> base_seconds(options.modes.size(), 0.0);
  std::vector<ScaleModeMetrics> combo;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const std::size_t mode_idx = i % options.modes.size();
    if (job.ckt != prev_ckt) {
      t.separator();
      prev_ckt = job.ckt;
      std::fill(base_seconds.begin(), base_seconds.end(), 0.0);
    }
    if (job.skipped) {
      t.row().cell(job.wires).cell(job.procs)
          .cell(scale_assign_mode_name(job.mode)).cell("-").cell("-")
          .cell("-").cell("-").cell("(mesh exceeds channels)").cell("-")
          .cell("-").cell("-").cell("-");
      continue;
    }
    const RunOut& r = runs[i];
    if (base_seconds[mode_idx] == 0.0) base_seconds[mode_idx] = r.seconds;
    const double speedup =
        r.seconds == 0.0 ? 0.0 : base_seconds[mode_idx] / r.seconds;
    t.row().cell(job.wires).cell(job.procs)
        .cell(scale_assign_mode_name(job.mode))
        .cell(static_cast<long long>(r.m.circuit_height))
        .cell(r.m.route_rps, 0).cell(r.bytes_per_wire, 1).cell(speedup, 2)
        .cell(static_cast<double>(r.m.resident_bytes) / 1e6, 2)
        .cell(r.m.imbalance, 2)
        .cell(static_cast<long long>(r.m.routed_min))
        .cell(static_cast<long long>(r.m.routed_max))
        .cell(r.m.routed_stddev, 1);
    if (mode_idx == 0) {
      out.headline_route_rps = r.m.route_rps;
      out.headline_traffic_bytes = r.m.traffic_bytes;
      out.headline_resident_bytes = r.m.resident_bytes;
      out.headline_circuit_height = r.m.circuit_height;
      combo.clear();
    }
    combo.push_back(r.m);
    out.headline_modes = combo;
  }
  return out;
}

namespace {

/// §5.1.1: packet assembly/disassembly "take up to one fourth of the
/// processing time" at frequent updates.
Table run_overhead_breakdown(const PaperCircuits& c, const ExperimentConfig& config) {
  Table t;
  t.column("schedule", Align::kLeft).column("routing(s)").column("msg sw(s)")
      .column("NI copy(s)").column("msg fraction");
  const std::pair<const char*, UpdateSchedule> cases[] = {
      {"sender (1,1)  [most frequent]", UpdateSchedule::sender(1, 1)},
      {"sender (2,5)", UpdateSchedule::sender(2, 5)},
      {"sender (2,10)", UpdateSchedule::sender(2, 10)},
      {"sender (10,20) [rarest]", UpdateSchedule::sender(10, 20)},
      {"receiver (1,5)", UpdateSchedule::receiver(1, 5)},
      {"receiver (1,30)", UpdateSchedule::receiver(1, 30)},
  };
  const auto runs = map_indexed(std::size(cases), [&](std::size_t i) {
    return run_mp(c.bnre, config.procs, config.mp(cases[i].second)).result;
  });
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const TimeBreakdown& tb = runs[i].time_breakdown;
    t.row().cell(cases[i].first)
        .cell(static_cast<double>(tb.routing_ns) / 1e9, 3)
        .cell(static_cast<double>(tb.msg_software_ns) / 1e9, 3)
        .cell(static_cast<double>(tb.network_copy_ns) / 1e9, 3)
        .cell(format_fixed(tb.message_fraction() * 100.0, 1) + "%");
  }
  return t;
}

Table run_ablation_packet_structure(const PaperCircuits& c,
                                    const ExperimentConfig& config) {
  Table t;
  t.column("packet structure", Align::kLeft).column("CktHt").column("MBytes")
      .column("Time(s)");
  const std::pair<const char*, PacketStructure> cases[] = {
      {"wire based", PacketStructure::kWireBased},
      {"whole region", PacketStructure::kWholeRegion},
      {"bounding box (paper)", PacketStructure::kBoundingBox},
  };
  const auto runs = map_indexed(std::size(cases), [&](std::size_t i) {
    MpConfig mp = config.mp(UpdateSchedule::sender(2, 10));
    mp.packet_structure = cases[i].second;
    return run_mp(c.bnre, config.procs, mp).result;
  });
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const MpRunResult& r = runs[i];
    t.row().cell(cases[i].first).cell(static_cast<long long>(r.circuit_height))
        .cell(r.mbytes(), 3).cell(r.seconds(), 3);
  }
  return t;
}

Table run_ablation_protocols(const PaperCircuits& c, const ExperimentConfig& config) {
  const ShmTraffic shm = run_shm_traffic(c.bnre, config, kBaselineAssign, {});
  Table t;
  t.column("protocol", Align::kLeft).column("MBytes").column("write frac")
      .column("invalidations");
  // Sweep 8B and 32B lines: invalidate protocols scale with line size,
  // the update protocol does not (no refetches). Four independent two-size
  // sweeps of the same const trace — one pool job per protocol.
  const std::pair<const char*, ProtocolKind> protocols[] = {
      {"write back w/ invalidate (paper)", ProtocolKind::kWriteBackInvalidate},
      {"write through", ProtocolKind::kWriteThrough},
      {"Illinois MESI", ProtocolKind::kMesi},
      {"Dragon (write update)", ProtocolKind::kDragon}};
  const std::vector<std::int32_t> lines = {8, 32};
  const auto sweeps = map_indexed(std::size(protocols), [&](std::size_t i) {
    return sweep_line_sizes(shm.run.trace, config.procs, lines, protocols[i].second);
  });
  for (std::size_t i = 0; i < std::size(protocols); ++i) {
    for (std::size_t k = 0; k < lines.size(); ++k) {
      const CoherenceTraffic& traffic = sweeps[i][k];
      t.row().cell(std::string(protocols[i].first) + " @" + std::to_string(lines[k]) + "B")
          .cell(mbytes(traffic), 3)
          .cell(traffic.write_fraction(), 2)
          .cell(static_cast<unsigned long long>(traffic.invalidation_msgs));
    }
  }
  return t;
}

Table run_ablation_topology(const PaperCircuits& c, const ExperimentConfig& config) {
  Table t;
  t.column("topology", Align::kLeft).column("CktHt").column("MBytes")
      .column("byte-hops").column("Time(s)").column("mean latency (us)");
  // Receiver-initiated traffic reaches across the whole mesh (requests to
  // arbitrary owners), so wraparound edges actually shorten paths. CBS
  // simulated k-ary n-cubes generally; the binary 4-cube (hypercube) and
  // the 1D ring bound the mesh from both sides.
  struct TopoCase {
    const char* name;
    Topology::Edges edges;
    std::vector<std::int32_t> dims;  // empty: match the partition mesh
  };
  // The binary n-cube only exists for power-of-two processor counts.
  std::vector<std::int32_t> cube_dims;
  for (std::int32_t p = config.procs; p > 1 && p % 2 == 0; p /= 2) {
    cube_dims.push_back(2);
  }
  const bool cube_ok =
      !cube_dims.empty() &&
      (1 << cube_dims.size()) == config.procs;
  std::vector<TopoCase> cases = {
      TopoCase{"2D mesh (paper)", Topology::Edges::kMesh, {}},
      TopoCase{"2D torus", Topology::Edges::kTorus, {}},
      TopoCase{"1D ring", Topology::Edges::kTorus, {config.procs}}};
  if (cube_ok) {
    cases.insert(cases.begin() + 2,
                 TopoCase{"binary hypercube", Topology::Edges::kTorus, cube_dims});
  }
  const auto runs = map_indexed(cases.size(), [&](std::size_t i) {
    MpConfig mp = config.mp(UpdateSchedule::receiver(1, 5));
    mp.edges = cases[i].edges;
    mp.topology_dims = cases[i].dims;
    return run_mp(c.bnre, config.procs, mp).result;
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const MpRunResult& r = runs[i];
    const double mean_latency_us =
        r.network.packets == 0
            ? 0.0
            : static_cast<double>(r.network.total_latency_ns) /
                  static_cast<double>(r.network.packets) / 1e3;
    t.row().cell(cases[i].name).cell(static_cast<long long>(r.circuit_height))
        .cell(r.mbytes(), 3)
        .cell(static_cast<unsigned long long>(r.network.byte_hops))
        .cell(r.seconds(), 3).cell(mean_latency_us, 1);
  }
  return t;
}

}  // namespace

CheckedSweep run_check_oracle(const Circuit& circuit, const ExperimentConfig& config,
                              const FaultPlan* faults) {
  OracleConfig oracle;
  oracle.procs = config.procs;
  oracle.iterations = config.iterations;
  oracle.faults = faults;
  const OracleResult result = run_differential_oracle(circuit, oracle);

  CheckedSweep out;
  out.all_ok = result.all_ok();
  out.runs = static_cast<std::int32_t>(result.variants.size());
  Table& t = out.table;
  t.column("implementation", Align::kLeft).column("CktHt").column("Occup.")
      .column("legal", Align::kLeft).column("bands", Align::kLeft)
      .column("checkpoints").column("consistent", Align::kLeft)
      .column("converged", Align::kLeft).column("verdict", Align::kLeft);
  for (const OracleVariant& v : result.variants) {
    t.row().cell(v.name)
        .cell(static_cast<long long>(v.circuit_height))
        .cell(static_cast<long long>(v.occupancy_factor))
        .cell(v.legality.legal() ? "yes" : "NO")
        .cell(v.height_in_band && v.occupancy_in_band ? "in" : "OUT")
        .cell(static_cast<long long>(v.consistency.checkpoints))
        .cell(v.is_message_passing ? (v.consistency.consistent() ? "yes" : "NO")
                                   : "-")
        .cell(v.is_message_passing ? (v.consistency.converged() ? "yes" : "NO")
                                   : "-")
        .cell(v.ok() ? "OK" : "FAIL");
  }
  return out;
}

CheckedSweep run_check_faults(const Circuit& circuit, const ExperimentConfig& config) {
  CheckedSweep out;
  out.all_ok = true;
  Table& t = out.table;
  t.column("fault plan", Align::kLeft).column("injected").column("violations")
      .column("unmatched").column("inflight").column("lost pkts")
      .column("converged", Align::kLeft).column("detected", Align::kLeft);

  struct Case {
    const char* name;
    FaultPlan plan;
    bool expect_divergence;
  };
  std::vector<Case> cases;
  cases.push_back({"none", FaultPlan{}, false});
  {
    // Drops target the owner-bound delta updates: those are what the
    // conservation ledger tracks (losing a response would instead park a
    // blocking receiver — a deadlock, not a consistency divergence).
    FaultPlan p;
    p.drop_rate = 0.05;
    p.packet_types = {kMsgSendRmtData};
    cases.push_back({"drop 0.05 (deltas)", p, true});
  }
  {
    FaultPlan p;
    p.dup_rate = 0.10;
    p.packet_types = {kMsgSendRmtData};
    cases.push_back({"dup 0.10 (deltas)", p, true});
  }
  {
    FaultPlan p;
    p.delay_rate = 0.3;
    p.delay_ns = 500'000;
    cases.push_back({"delay 500us@0.3", p, false});
  }
  {
    FaultPlan p;
    p.reorder_rate = 0.2;
    cases.push_back({"reorder 0.2", p, false});
  }
  {
    FaultPlan p;
    p.stall_rate = 0.05;
    p.stall_ns = 200'000;
    cases.push_back({"stall 200us@0.05", p, false});
  }

  // Each fault plan is an independent run with a job-local checker.
  struct FaultOut {
    MpRunResult run;
    ConsistencyReport rep;
  };
  const auto runs = map_indexed(cases.size(), [&](std::size_t i) {
    ConsistencyOptions opts;
    opts.checkpoint_period = 8;
    ViewConsistencyChecker checker(opts);
    // Frequent updates (periods 2/2) so even small circuits put enough
    // packets on the wire for the configured rates to fire.
    MpConfig mp = config.mp(UpdateSchedule::sender(2, 2));
    mp.faults = &cases[i].plan;
    mp.observer = &checker;
    MpRunResult r = run_message_passing(circuit, config.procs, mp);
    ConsistencyReport rep = checker.report();
    return FaultOut{std::move(r), std::move(rep)};
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const MpRunResult& run = runs[i].run;
    const ConsistencyReport& rep = runs[i].rep;
    const std::uint64_t injected = run.faults.dropped + run.faults.duplicated +
                                   run.faults.delayed + run.faults.reordered +
                                   run.faults.stalls;
    const bool diverged = !rep.consistent() || !rep.converged();
    // Divergence is only owed when a divergence-class fault actually fired.
    const bool expect = c.expect_divergence &&
                        run.faults.dropped + run.faults.duplicated > 0;
    const bool detected_correctly = diverged == expect;
    t.row().cell(c.name)
        .cell(static_cast<unsigned long long>(injected))
        .cell(static_cast<long long>(rep.violations))
        .cell(static_cast<long long>(rep.unmatched_applies))
        .cell(static_cast<long long>(rep.final_inflight_cells))
        .cell(static_cast<long long>(rep.final_outstanding_packets))
        .cell(rep.converged() ? "yes" : "NO")
        .cell(!detected_correctly ? "WRONG" : diverged ? "divergence" : "clean");
    out.all_ok = out.all_ok && detected_correctly;
    ++out.runs;
  }
  return out;
}

Table run_check_trace_scan(const Circuit& circuit, const ExperimentConfig& config) {
  const ShmRunResult run = run_shared_memory(circuit, config.shm());

  Table t;
  t.column("line B").column("refs").column("lines").column("conflicted")
      .column("ww").column("wr").column("rw")
      .column("hottest", Align::kLeft).column("histogram", Align::kLeft);
  constexpr std::int32_t kLines[] = {4, 8, 16, 32};
  const auto reports = map_indexed(std::size(kLines), [&](std::size_t i) {
    TraceScanOptions opts;
    opts.line_bytes = kLines[i];
    return scan_trace_conflicts(run.trace, opts);
  });
  for (std::size_t i = 0; i < std::size(kLines); ++i) {
    const std::int32_t line = kLines[i];
    const TraceScanReport& rep = reports[i];
    std::string hottest = "-";
    if (!rep.hottest.empty()) {
      hottest = "line " + std::to_string(rep.hottest.front().line) + " x" +
                std::to_string(rep.hottest.front().total());
    }
    std::string histogram;
    for (std::size_t b = 0; b < rep.histogram.size(); ++b) {
      if (b > 0) histogram += "/";
      histogram += std::to_string(rep.histogram[b]);
    }
    t.row().cell(static_cast<long long>(line))
        .cell(static_cast<long long>(rep.refs))
        .cell(static_cast<long long>(rep.lines_touched))
        .cell(static_cast<long long>(rep.lines_with_conflicts))
        .cell(static_cast<long long>(rep.ww))
        .cell(static_cast<long long>(rep.wr))
        .cell(static_cast<long long>(rep.rw))
        .cell(hottest)
        .cell(histogram.empty() ? "-" : histogram);
  }
  return t;
}

namespace {

/// Conservation checkpoint period of run_topology_sweep's per-run
/// view-consistency checker.
constexpr std::int32_t kTopologyCheckpointPeriod = 4;

}  // namespace

CheckedSweep run_topology_sweep(const Circuit& circuit,
                                const ExperimentConfig& config) {
  const std::span<const CheckSchedule> scheds = checking_schedules();
  struct Topo {
    const char* name;
    Topology::Edges edges;
  };
  const Topo topos[] = {
      {"mesh", Topology::Edges::kMesh},
      {"torus", Topology::Edges::kTorus},
      {"fat-tree", Topology::Edges::kFatTree},
  };
  const LinkCostModelKind models[] = {
      LinkCostModelKind::kFixed,
      LinkCostModelKind::kMd1,
  };

  struct Job {
    std::size_t sched = 0;
    std::size_t topo = 0;
    std::size_t model = 0;
  };
  std::vector<Job> jobs;
  for (std::size_t topo = 0; topo < std::size(topos); ++topo) {
    for (std::size_t model = 0; model < std::size(models); ++model) {
      for (std::size_t sched = 0; sched < scheds.size(); ++sched) {
        jobs.push_back({sched, topo, model});
      }
    }
  }

  struct RunOut {
    std::int64_t height = 0;
    SimTime completion_ns = 0;
    std::uint64_t bytes = 0;
    std::uint64_t byte_hops = 0;
    LinkUsageSummary usage;
    bool consistent = false;
    bool converged = false;
    bool ledger_ok = false;
    bool conserved = false;  ///< sum(link_bytes) == byte_hops
    bool ok() const { return consistent && converged && ledger_ok && conserved; }
  };
  // Each cell of the matrix is an independent deterministic simulation with
  // its own consistency checker; map_indexed keeps the table bytes identical at
  // any pool width.
  const auto runs = map_indexed(jobs.size(), [&](std::size_t i) {
    const Job& job = jobs[i];
    ConsistencyOptions check_options;
    check_options.checkpoint_period = kTopologyCheckpointPeriod;
    ViewConsistencyChecker checker(check_options);

    MpConfig mp = config.mp(scheds[job.sched].schedule);
    mp.edges = topos[job.topo].edges;
    mp.link_cost.kind = models[job.model];
    mp.transport.enabled = true;
    mp.observer = &checker;
    const MpRunResult r = run_message_passing(circuit, config.procs, mp);

    RunOut o;
    o.height = r.circuit_height;
    o.completion_ns = r.completion_ns;
    o.bytes = r.network.bytes;
    o.byte_hops = r.network.byte_hops;
    o.usage = r.link_usage;
    const ConsistencyReport report = checker.report();
    o.consistent = report.consistent();
    o.converged = report.converged();
    o.ledger_ok = r.transport.books_balance();
    std::uint64_t link_bytes_total = 0;
    for (std::uint64_t b : r.link_bytes) link_bytes_total += b;
    o.conserved = link_bytes_total == r.network.byte_hops;
    return o;
  });

  CheckedSweep out;
  Table& t = out.table;
  t.column("schedule", Align::kLeft).column("topology", Align::kLeft)
      .column("model", Align::kLeft).column("procs").column("CktHt")
      .column("Time(ms)").column("KB").column("max util").column("mean util")
      .column("links").column("stalls").column("checks", Align::kLeft);
  out.all_ok = true;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const RunOut& r = runs[i];
    t.row().cell(scheds[job.sched].name).cell(topos[job.topo].name)
        .cell(link_cost_model_name(models[job.model])).cell(config.procs)
        .cell(static_cast<long long>(r.height))
        .cell(static_cast<double>(r.completion_ns) / 1e6, 2)
        .cell(static_cast<double>(r.bytes) / 1e3, 1)
        .cell(r.usage.max_utilization, 3).cell(r.usage.mean_utilization, 3)
        .cell(static_cast<long long>(r.usage.links_used))
        .cell(static_cast<unsigned long long>(r.usage.stalls))
        .cell(r.ok() ? "ok"
                     : (!r.conserved ? "BYTES-LEAKED"
                                     : (!r.ledger_ok ? "IMBALANCED"
                                                     : "INCONSISTENT")));
    out.all_ok = out.all_ok && r.ok();
    ++out.runs;
  }
  return out;
}

CheckedSweep run_fault_recovery_sweep(const Circuit& circuit,
                                      const ExperimentConfig& config) {
  const std::span<const CheckSchedule> scheds = checking_schedules();
  constexpr double kRates[] = {0.0, 0.005, 0.02, 0.05};
  const std::size_t num_scheds = scheds.size();
  constexpr std::size_t kNumRates = std::size(kRates);

  // Plans live in a stable vector: MpConfig keeps a pointer into it across
  // the pooled runs. Drops hit every packet type — including blocking-mode
  // responses, which without the transport would deadlock the requester.
  std::vector<FaultPlan> plans(num_scheds * kNumRates);
  for (std::size_t s = 0; s < num_scheds; ++s) {
    for (std::size_t r = 0; r < kNumRates; ++r) {
      plans[s * kNumRates + r].drop_rate = kRates[r];
    }
  }
  const auto runs = map_indexed(num_scheds * kNumRates, [&](std::size_t i) {
    MpConfig mp = config.mp(scheds[i / kNumRates].schedule);
    mp.transport.enabled = true;
    mp.faults = &plans[i];
    return run_message_passing(circuit, config.procs, mp);
  });

  CheckedSweep out;
  out.all_ok = true;
  Table& t = out.table;
  t.column("schedule", Align::kLeft).column("drop").column("dropped")
      .column("retx").column("dedup").column("acks").column("MBytes")
      .column("ovh%").column("lag(us)").column("identical", Align::kLeft)
      .column("ledger", Align::kLeft);
  for (std::size_t s = 0; s < num_scheds; ++s) {
    if (s > 0) t.separator();
    const MpRunResult& base = runs[s * kNumRates];
    for (std::size_t r = 0; r < kNumRates; ++r) {
      const MpRunResult& run = runs[s * kNumRates + r];
      // The convergence guarantee: a faulted run is bit-identical to the
      // same schedule's fault-free run in everything the router produced.
      const bool identical = run.routes == base.routes &&
                             run.completion_ns == base.completion_ns &&
                             run.view_staleness == base.view_staleness &&
                             run.circuit_height == base.circuit_height;
      const std::uint64_t control_bytes =
          run.transport.retransmit_bytes + run.transport.ack_bytes;
      const double data_bytes =
          static_cast<double>(run.bytes_transferred - control_bytes);
      t.row().cell(scheds[s].name).cell(kRates[r], 3)
          .cell(static_cast<unsigned long long>(run.faults.dropped))
          .cell(static_cast<unsigned long long>(run.transport.retransmits))
          .cell(static_cast<unsigned long long>(run.transport.dup_dropped))
          .cell(static_cast<unsigned long long>(run.transport.acks_sent))
          .cell(run.mbytes(), 3)
          .cell(data_bytes > 0.0
                    ? 100.0 * static_cast<double>(control_bytes) / data_bytes
                    : 0.0,
                2)
          .cell(static_cast<double>(run.transport.max_recovery_lag_ns) / 1e3, 1)
          .cell(identical ? "yes" : "NO")
          .cell(run.transport.books_balance() ? "ok" : "IMBALANCED");
      out.all_ok = out.all_ok && identical && run.transport.books_balance();
      ++out.runs;
    }
  }
  return out;
}

namespace {

constexpr bool kSlow = true;

std::vector<Experiment> build_catalog() {
  return {
      {"table1_sender_initiated",
       {{"Table 1 — sender initiated updates", run_table1_sender_initiated}}},
      {"table2_receiver_initiated",
       {{"Table 2 — non-blocking receiver initiated updates",
         run_table2_receiver_initiated}}},
      {"sec513_blocking_mixed",
       {{"Section 5.1.3 — blocking vs non-blocking", run_sec513_blocking},
        {"Section 5.1.3 — mixed schedules", run_sec513_mixed}}},
      {"table3_cache_line_size",
       {{"Table 3 — shm traffic vs cache line size", run_table3_line_size, kSlow},
        {"Table 3 — traffic breakdown by cause", run_table3_breakdown, kSlow}}},
      {"sec52_mp_vs_shm",
       {{"Section 5.2 — MP vs SHM", run_sec52_comparison, kSlow}}},
      {"table4_locality_mp",
       {{"Table 4 — locality, message passing", run_table4_locality_mp},
        {"Section 5.3.1 — receiver initiated locality traffic",
         run_table4_receiver_locality}}},
      {"table5_locality_shm",
       {{"Table 5 — locality, shared memory", run_table5_locality_shm, kSlow}}},
      {"locality_measure",
       {{"Section 5.3.3 — locality measure", run_locality_measure}}},
      {"table6_scaling", {{"Table 6 — processor scaling", run_table6_scaling}}},
      {"speedup", {{"Section 5.4 — speedup", run_speedup}}},
      {"overhead_breakdown",
       {{"Section 5.1.1 — message software overhead", run_overhead_breakdown}}},
      {"ablation_packet_structure",
       {{"Ablation — packet structure", run_ablation_packet_structure}}},
      {"ablation_protocols",
       {{"Ablation — coherence protocols", run_ablation_protocols, kSlow}}},
      {"ablation_topology", {{"Ablation — topology", run_ablation_topology}}},
      {"ablation_dynamic_assignment",
       {{"Ablation — dynamic wire distribution", run_ablation_dynamic_assignment}}},
      {"ablation_router",
       {{"Ablation — router design choices", run_ablation_router},
        {"Section 3 — iteration convergence", run_iteration_convergence}}},
      {"ablation_schedule_knobs",
       {{"Ablation — request lookahead", run_ablation_lookahead},
        {"Ablation — ThresholdCost sweep", run_threshold_sweep}}},
      {"hierarchical_shm",
       {{"Extension — hierarchical shm / bus occupancy", run_hierarchical_shm,
         kSlow}}},
      {"view_staleness",
       {{"Extension — view staleness per schedule", run_view_staleness}}},
      {"ablation_cache_size",
       {{"Ablation — finite caches (footnote 3)", run_ablation_cache_size, kSlow}}},
      // The 64-processor sweep is slow, the iteration sweep is not.
      {"scaling_large",
       {{"Extension — scaling to 64 processors", run_scaling_large, kSlow},
        {"Extension — MP iteration sweep", run_mp_iteration_sweep}}},
      {"seed_robustness",
       {{"Robustness — traffic hierarchy across circuit seeds", run_seed_robustness,
         kSlow}}},
  };
}

}  // namespace

const std::vector<Experiment>& experiment_catalog() {
  static const std::vector<Experiment> catalog = build_catalog();
  return catalog;
}

std::vector<const Experiment*> select_experiments(const std::string& names) {
  const std::vector<Experiment>& catalog = experiment_catalog();
  std::vector<bool> wanted(catalog.size(), names.empty());
  for (std::size_t pos = 0; !names.empty() && pos <= names.size();) {
    std::size_t comma = names.find(',', pos);
    if (comma == std::string::npos) comma = names.size();
    const std::string name = names.substr(pos, comma - pos);
    pos = comma + 1;
    const auto it = std::find_if(catalog.begin(), catalog.end(),
                                 [&](const Experiment& e) { return e.name == name; });
    if (it == catalog.end()) {
      std::string message = "unknown experiment '" + name + "'; valid names:";
      for (const Experiment& e : catalog) message += " " + e.name;
      throw std::invalid_argument(message);
    }
    wanted[static_cast<std::size_t>(it - catalog.begin())] = true;
  }
  std::vector<const Experiment*> out;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (wanted[i]) out.push_back(&catalog[i]);
  }
  return out;
}

}  // namespace locus
