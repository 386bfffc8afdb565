#include "workloads.hpp"

#include <numeric>
#include <utility>

#include "check/consistency.hpp"
#include "check/legality.hpp"
#include "circuit/generator.hpp"
#include "circuit/hier_generator.hpp"
#include "coherence/simulator.hpp"
#include "msg/driver.hpp"
#include "route/sequential.hpp"
#include "shm/shm_router.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace perfbench {

using namespace locus;

namespace {

/// Generator seeds of the canonical netlists: make_bnre_like() and the
/// scale sweep's default.
constexpr std::uint64_t kBnreSeed = 0xB9E5EED5ULL;
constexpr std::uint64_t kHierSeed = 0x5CA1EULL;

/// Calls `fn` inside a span named `name` (no span when tracing is off).
template <typename Fn>
auto timed(Tracer* tracer, const char* name, Fn&& fn) {
  Scope scope(tracer, name);
  return fn();
}

/// paper-bnre: the paper's own comparison (§5.1-5.2) on a bnrE-like
/// circuit. The six schedules are the Table 1/2 and §5.1.3 rows; the shm run
/// keeps the full reference trace that Table 3 replays.
WorkloadSpec paper_bnre(bool tiny) {
  WorkloadSpec w;
  w.name = "paper-bnre";
  w.wires = tiny ? 60 : 420;
  w.procs = 16;
  w.assign = AssignMethod::kThreshold1000;
  const std::pair<const char*, UpdateSchedule> schedules[] = {
      {"sender(2,1)", UpdateSchedule::sender(2, 1)},
      {"sender(2,10)", UpdateSchedule::sender(2, 10)},
      {"sender(10,20)", UpdateSchedule::sender(10, 20)},
      {"receiver(1,30)", UpdateSchedule::receiver(1, 30)},
      {"receiver-blk(1,30)", UpdateSchedule::receiver(1, 30, /*blocking=*/true)},
      {"receiver(5,10)", UpdateSchedule::receiver(5, 10)},
  };
  for (const auto& [label, schedule] : schedules) {
    MpConfig config;
    config.schedule = schedule;
    w.mp_runs.push_back({label, config});
  }
  w.line_sizes = {4, 8, 16, 32};
  return w;
}

/// scale-10k: the scale tier's 64-processor point with sharded views and
/// region-batched updates, once with geographic assignment and once with
/// locality-aware dynamic grants (the E13/E14 configuration).
WorkloadSpec scale_10k(bool tiny) {
  WorkloadSpec w;
  w.name = "scale-10k";
  w.hierarchical = true;
  w.wires = tiny ? 600 : 10'000;
  w.procs = 64;
  w.assign = AssignMethod::kThresholdInf;
  MpConfig geo;
  geo.schedule = UpdateSchedule::sender(2, 10);
  geo.shard.enabled = true;
  geo.shard.batch_updates = true;
  geo.shard.tile = TileDims{2, 128};
  MpConfig dyn = geo;
  dyn.assignment_mode = WireAssignmentMode::kDynamicInterrupt;
  dyn.dynamic.policy = GrantPolicy::kLocality;
  dyn.dynamic.grant_batch = 16;
  dyn.dynamic.locality_radius = 2;
  w.mp_runs = {{"geo", geo}, {"dyn-local", dyn}};
  return w;
}

/// checked-faults: every checker on, over a faulted fat-tree with queueing
/// links and the reliable transport recovering the drops.
WorkloadSpec checked_faults(bool tiny) {
  WorkloadSpec w;
  w.name = "checked-faults";
  w.hierarchical = true;
  w.wires = tiny ? 300 : 2000;
  w.procs = 16;
  w.assign = AssignMethod::kThreshold1000;
  MpConfig base;
  base.edges = Topology::Edges::kFatTree;
  base.fat_tree_arity = 2;
  base.link_cost.kind = LinkCostModelKind::kMd1;
  base.transport.enabled = true;
  MpConfig sender = base;
  sender.schedule = UpdateSchedule::sender(2, 1);
  MpConfig receiver = base;
  receiver.schedule = UpdateSchedule::receiver(1, 30, /*blocking=*/true);
  w.mp_runs = {{"sender(2,1)", sender}, {"receiver-blk(1,30)", receiver}};
  FaultPlan plan;
  plan.drop_rate = 0.02;
  w.faults = plan;
  w.checkpoint_period = tiny ? 16 : 64;
  return w;
}

/// Collects the reasons one run failed its correctness gate.
class RunCheck {
 public:
  explicit RunCheck(std::string label) : label_(std::move(label)) {}
  void require(bool ok, const std::string& what) {
    if (!ok) reasons_ += (reasons_.empty() ? "" : "; ") + what;
  }
  void finish(PassResult& out) {
    ++out.runs;
    if (!reasons_.empty()) out.failures.push_back(label_ + ": " + reasons_);
  }

 private:
  std::string label_;
  std::string reasons_;
};

void check_legal(RunCheck& check, const Inputs& in, const std::vector<WireRoute>& routes,
                 Tracer* tracer) {
  const LegalityReport report = timed(
      tracer, "check.legality", [&] { return check_route_legality(in.circuit, routes); });
  check.require(report.legal(), std::to_string(report.issues.size()) +
                                    " route legality issues");
  check.require(report.wires_checked == in.circuit.num_wires(),
                "legality checked " + std::to_string(report.wires_checked) +
                    " wires");
}

void run_mp(const WorkloadSpec& spec, const MpRun& run, const Inputs& in,
            Tracer* tracer, PassResult& out) {
  RunCheck check(spec.name + " " + run.label);
  MpConfig config = run.config;
  config.faults = spec.faults ? &in.faults : nullptr;
  std::optional<ViewConsistencyChecker> checker;
  std::optional<TimedObserver> timed_checker;
  if (spec.checkpoint_period > 0) {
    ConsistencyOptions options;
    options.checkpoint_period = spec.checkpoint_period;
    checker.emplace(options);
    config.observer = &*checker;
    if (tracer) {
      timed_checker.emplace(*checker, *tracer, "check.consistency");
      config.observer = &*timed_checker;
    }
  }
  const MpRunResult r = timed(tracer, "msg.run", [&] {
    return run_message_passing(in.circuit, in.partition, in.assignment, config);
  });

  check_legal(check, in, r.routes, tracer);
  check.require(r.transport.books_balance(), "transport ledger imbalanced");
  const std::uint64_t link_bytes =
      std::accumulate(r.link_bytes.begin(), r.link_bytes.end(), std::uint64_t{0});
  check.require(link_bytes == r.network.byte_hops,
                "sum(link_bytes) " + std::to_string(link_bytes) + " != byte_hops " +
                    std::to_string(r.network.byte_hops));
  if (checker) {
    const ConsistencyReport& report = checker->report();
    check.require(report.converged(), "view consistency did not converge");
    out.counts["check.cells_checked"] += report.cells_checked;
  }
  check.finish(out);

  auto& c = out.counts;
  c["ckt_height"] += r.circuit_height;
  c["traffic_bytes"] += static_cast<std::int64_t>(r.bytes_transferred);
  c["sim_time_ns"] += r.completion_ns;
  c["msg.packets"] += static_cast<std::int64_t>(r.network.packets);
  c["msg.bytes"] += static_cast<std::int64_t>(r.network.bytes);
  c["msg.retransmits"] += static_cast<std::int64_t>(r.transport.retransmits);
  c["msg.acks"] += static_cast<std::int64_t>(r.transport.acks_sent);
  // Without the transport every packet on the wire carries data.
  c["msg.data_packets"] += static_cast<std::int64_t>(
      config.transport.enabled ? r.transport.data_packets : r.network.packets);
  c["sim.events"] += static_cast<std::int64_t>(r.machine.events);
  c["sim.link_stalls"] += static_cast<std::int64_t>(r.link_usage.stalls);
  c["sim.link_stall_ns"] += r.link_usage.stall_ns;
  c["sim.routing_ns"] += r.time_breakdown.routing_ns;
  c["sim.msg_software_ns"] += r.time_breakdown.msg_software_ns;
  c["sim.network_copy_ns"] += r.time_breakdown.network_copy_ns;
  c["sim.idle_ns"] += in.partition.num_regions() * r.completion_ns -
                      r.time_breakdown.busy_ns();
  c["route.probes"] += r.work.probes;
  c["route.routes_evaluated"] += r.work.routes_evaluated;
  c["grid.view_resident_bytes"] += r.view_resident_bytes;
}

ShmRunResult run_shm(const WorkloadSpec& spec, const Inputs& in, Tracer* tracer,
                     PassResult& out) {
  RunCheck check(spec.name + " shm");
  ShmConfig config;
  config.procs = spec.procs;
  config.assignment = in.assignment;
  config.capture_trace = true;
  ShmRunResult r =
      timed(tracer, "shm.run", [&] { return run_shared_memory(in.circuit, config); });
  check_legal(check, in, r.routes, tracer);
  check.finish(out);
  auto& c = out.counts;
  c["ckt_height"] += r.circuit_height;
  c["sim_time_ns"] += r.completion_ns;
  c["shm.trace_refs"] += static_cast<std::int64_t>(r.trace.size());
  c["route.probes"] += r.work.probes;
  c["route.routes_evaluated"] += r.work.routes_evaluated;
  return r;
}

void replay_trace(const WorkloadSpec& spec, const RefTrace& trace, Tracer* tracer,
                  PassResult& out) {
  RunCheck check(spec.name + " coherence");
  const std::vector<CoherenceTraffic> traffic = timed(tracer, "coherence.replay", [&] {
    return sweep_line_sizes(trace, spec.procs, spec.line_sizes);
  });
  auto& c = out.counts;
  for (const CoherenceTraffic& t : traffic) {
    check.require(t.accesses == trace.size(), "coherence replay skipped references");
    c["traffic_bytes"] += static_cast<std::int64_t>(t.total_bytes());
    c["coherence.accesses"] += static_cast<std::int64_t>(t.accesses);
  }
  check.finish(out);
}

void run_sequential(const WorkloadSpec& spec, const Inputs& in, Tracer* tracer,
                    PassResult& out) {
  RunCheck check(spec.name + " sequential");
  const SequentialResult r = timed(tracer, "route.seq", [&] {
    return route_sequential(in.circuit, SequentialParams{});
  });
  check_legal(check, in, r.routes, tracer);
  check.finish(out);
  auto& c = out.counts;
  c["ckt_height"] += r.circuit_height;
  c["route.probes"] += r.work.probes;
  c["route.routes_evaluated"] += r.work.routes_evaluated;
  c["route.seq_probes"] += r.work.probes;
}

}  // namespace

std::optional<WorkloadSpec> workload_spec(const std::string& name, bool tiny) {
  if (name == "paper-bnre") return paper_bnre(tiny);
  if (name == "scale-10k") return scale_10k(tiny);
  if (name == "checked-faults") return checked_faults(tiny);
  return std::nullopt;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, Tracer* tracer) {
  Circuit circuit = timed(tracer, "circuit.generate", [&] {
    // The netlist's geometry comes from the generators' canonical seeds; the
    // workload seed renumbers its wires, which sets the routing order of
    // every implementation and the ThresholdCost tie-breaks. Seeds thus
    // give different routings of equal-sized inputs: regenerating the
    // geometry per seed moves wall time and traffic by 15-35% between
    // seeds, more than any regression the benchmark must resolve.
    const Circuit netlist = [&] {
      if (spec.hierarchical) return make_scale_circuit(spec.wires, kHierSeed);
      // make_bnre_like()'s parameters, at `wires` wires.
      GeneratorParams p;
      p.name = "bnrE-like";
      p.channels = 10;
      p.grids = 341;
      p.num_wires = spec.wires;
      p.seed = kBnreSeed;
      p.clusters = 24;
      p.global_fraction = 0.12;
      p.local_span_mean = 18.0;
      return generate_circuit(p);
    }();
    std::vector<Wire> wires = netlist.wires();
    Rng rng(seed);
    for (std::size_t i = wires.size(); i > 1; --i) {
      std::swap(wires[i - 1], wires[rng.bounded(i)]);
    }
    return Circuit(netlist.name(), netlist.channels(), netlist.grids(), std::move(wires));
  });
  Partition partition(circuit.channels(), circuit.grids(),
                      MeshShape::for_procs(spec.procs));
  Assignment assignment = timed(tracer, "assign.make", [&] {
    return make_assignment(circuit, partition, spec.assign);
  });
  FaultPlan faults = spec.faults.value_or(FaultPlan{});
  faults.seed = seed;
  return Inputs{std::move(circuit), partition, std::move(assignment), std::move(faults)};
}

PassResult run_pass(const WorkloadSpec& spec, const Inputs& inputs, Tracer* tracer) {
  PassResult out;
  auto clocked = [&](auto&& run) {
    Stopwatch sw;
    run();
    out.run_seconds.push_back(sw.seconds());
  };
  for (const MpRun& run : spec.mp_runs) {
    clocked([&] { run_mp(spec, run, inputs, tracer, out); });
  }
  if (!spec.line_sizes.empty()) {
    std::optional<ShmRunResult> shm;  // no default constructor
    clocked([&] { shm.emplace(run_shm(spec, inputs, tracer, out)); });
    clocked([&] { replay_trace(spec, shm->trace, tracer, out); });
  }
  clocked([&] { run_sequential(spec, inputs, tracer, out); });
  return out;
}

}  // namespace perfbench
