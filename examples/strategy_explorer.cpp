// Tradeoff explorer: run the sequential, message passing or shared memory
// router on one configuration (any update schedule, wire assignment,
// processor count and circuit) and print the paper's metrics for that point.
//
//   $ ./examples/strategy_explorer --paradigm=seq --circuit=data/bnre_like.ckt --render
//   $ ./examples/strategy_explorer --paradigm=mp --procs=16 --send-rmt=2
//         (--send-loc=10 --assign=tc1000 --circuit=bnre ...)
//   $ ./examples/strategy_explorer --paradigm=shm --procs=16 --line-size=8
//         (--protocol=dragon ...)
//   $ ./examples/strategy_explorer --paradigm=shm --assign=loop --trace=shm.json
//
// --render adds the per-channel track table and an ASCII window of the final
// cost array. --metrics and --trace attach the obs layer to an mp or shm run
// and write its metrics CSV and a Chrome trace JSON (loads in Perfetto /
// chrome://tracing). --assign=loop runs shm as the distributed loop, with
// no static assignment. An shm run replays its reference trace in memory
// through the --protocol coherence model at --line-size (infinite caches)
// and prints the traffic by cause, the invalidations and the bus busy time.
//
// An unknown paradigm, assignment or protocol, an unreadable circuit, a
// count or line size out of range, or a flag the paradigm cannot use exits 1
// with a message before anything runs; so does an output path that cannot
// be written, after the run.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "assign/locality.hpp"
#include "circuit/generator.hpp"
#include "circuit/io.hpp"
#include "circuit/stats.hpp"
#include "coherence/bus.hpp"
#include "coherence/simulator.hpp"
#include "harness/experiments.hpp"
#include "msg/driver.hpp"
#include "obs/obs.hpp"
#include "route/quality.hpp"
#include "route/render.hpp"
#include "route/sequential.hpp"
#include "shm/shm_router.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

locus::Circuit pick_circuit(const std::string& name) {
  try {
    return locus::make_named_circuit(name);
  } catch (const std::invalid_argument&) {
    // Not a named circuit: treat it as a .ckt path.
  }
  try {
    return locus::read_circuit_file(name);
  } catch (const std::runtime_error& e) {
    throw std::invalid_argument("--circuit=" + name + " is neither bnre | mdc | tiny nor a "
                                "readable .ckt file (" + e.what() + ")");
  }
}

/// The static assignment named by --assign; nullopt for "loop", the shared
/// memory distributed loop.
std::optional<locus::AssignMethod> pick_method(const std::string& name) {
  if (name == "loop") return std::nullopt;
  if (name == "rr") return locus::AssignMethod::kRoundRobin;
  if (name == "tc30") return locus::AssignMethod::kThreshold30;
  if (name == "tc1000") return locus::AssignMethod::kThreshold1000;
  if (name == "inf") return locus::AssignMethod::kThresholdInf;
  throw std::invalid_argument("unknown assignment '" + name +
                              "' (valid: rr | tc30 | tc1000 | inf | loop)");
}

/// The coherence protocol named by --protocol.
locus::ProtocolKind pick_protocol(const std::string& name) {
  if (name == "wbi") return locus::ProtocolKind::kWriteBackInvalidate;
  if (name == "wt") return locus::ProtocolKind::kWriteThrough;
  if (name == "mesi") return locus::ProtocolKind::kMesi;
  if (name == "dragon") return locus::ProtocolKind::kDragon;
  throw std::invalid_argument("unknown protocol '" + name +
                              "' (valid: wbi | wt | mesi | dragon)");
}

/// Rejects every flag given on the command line that `paradigm` does not
/// read, so a flag is never silently ignored.
void reject_unused_flags(const locus::Cli& cli, const std::string& paradigm) {
  struct Scope {
    const char* flag;
    const char* paradigms;  ///< the paradigms that read it
  };
  static constexpr Scope kScopes[] = {
      {"procs", "mp | shm"},    {"assign", "mp | shm"},  {"send-rmt", "mp"},
      {"send-loc", "mp"},       {"req-loc", "mp"},       {"req-rmt", "mp"},
      {"blocking", "mp"},       {"line-size", "shm"},    {"protocol", "shm"},
      {"metrics", "mp | shm"},  {"trace", "mp | shm"},   {"hop-detail", "mp | shm"},
  };
  for (const Scope& s : kScopes) {
    // No paradigm's name is part of another's.
    if (cli.given(s.flag) && std::string(s.paradigms).find(paradigm) == std::string::npos) {
      throw std::invalid_argument(std::string("--") + s.flag + " applies to --paradigm=" +
                                  s.paradigms + " only");
    }
  }
}

/// Prints the tracks each channel requires and a window of the final cost
/// array over grids 0..min(79, grids - 1), the paper's Figure 1 in ASCII:
/// digits are wires per cell, '.' is empty.
void render(const locus::CostArray& cost) {
  locus::Table report;
  report.column("channel").column("tracks required");
  const std::vector<std::int32_t> profile = locus::track_profile(cost);
  for (std::size_t c = 0; c < profile.size(); ++c) {
    report.row().cell(c).cell(profile[c]);
  }
  const std::int32_t hi = std::min(79, cost.grids() - 1);
  std::printf("\n%s\ncost array, grids 0..%d:\n%s", report.render().c_str(), hi,
              locus::render_cost_array(cost, 0, hi).c_str());
}

/// Writes the outputs named by --metrics and --trace. Returns 0, or 1 when a
/// path cannot be written.
int emit(const locus::obs::Obs& obs, const std::string& metrics_path,
         const std::string& trace_path) {
  if (!metrics_path.empty()) {
    if (!obs.counters().write_csv(metrics_path)) {
      std::fprintf(stderr, "strategy_explorer: cannot write metrics to '%s'\n",
                   metrics_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics: %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    if (!obs.trace()->write_chrome_json(trace_path)) {
      std::fprintf(stderr, "strategy_explorer: cannot write trace to '%s'\n",
                   trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %s (%zu events)\n", trace_path.c_str(),
                 obs.trace()->size());
  }
  return 0;
}

int run(const locus::Cli& cli) {
  const std::string paradigm = cli.get("paradigm");
  if (paradigm != "seq" && paradigm != "mp" && paradigm != "shm") {
    throw std::invalid_argument("unknown paradigm '" + paradigm +
                                "' (valid: seq | mp | shm)");
  }
  reject_unused_flags(cli, paradigm);
  // The shm replay's coherence model tracks at most 32 caches.
  const std::int32_t procs =
      cli.get_bounded_int("procs", 1, paradigm == "shm" ? 32 : 1 << 20);
  const std::int32_t iterations = cli.get_bounded_int("iterations", 1, 1 << 20);
  const std::int32_t line_size =
      cli.get_bounded_int("line-size", locus::CoherenceParams{}.word_size, 1 << 30);
  if ((line_size & (line_size - 1)) != 0) {
    throw std::invalid_argument("--line-size=" + cli.get("line-size") +
                                " is not a power of two");
  }
  const locus::ProtocolKind protocol = pick_protocol(cli.get("protocol"));
  locus::UpdateSchedule schedule;
  schedule.send_rmt_period = cli.get_bounded_int("send-rmt", 0, 1 << 20);
  schedule.send_loc_period = cli.get_bounded_int("send-loc", 0, 1 << 20);
  schedule.req_loc_requests = cli.get_bounded_int("req-loc", 0, 1 << 20);
  schedule.req_rmt_touches = cli.get_bounded_int("req-rmt", 0, 1 << 20);
  schedule.blocking_receiver = cli.get_bool("blocking");
  const std::optional<locus::AssignMethod> method = pick_method(cli.get("assign"));
  if (!method.has_value() && paradigm != "shm") {
    throw std::invalid_argument("--assign=loop applies to --paradigm=shm only");
  }
  const std::string metrics_path = cli.get("metrics");
  const std::string trace_path = cli.get("trace");
  const bool observe = !metrics_path.empty() || !trace_path.empty();
  if (cli.get_bool("hop-detail") && trace_path.empty()) {
    throw std::invalid_argument("--hop-detail needs --trace");
  }
  const bool show = cli.get_bool("render");
  locus::Circuit circuit = pick_circuit(cli.get("circuit"));

  if (paradigm == "seq") {
    locus::SequentialParams params;
    params.iterations = iterations;
    const locus::SequentialResult r = locus::route_sequential(circuit, params);
    std::printf("%s\n\n", locus::describe(circuit).c_str());
    std::printf("sequential run:\n");
    std::printf("  circuit height    : %lld tracks\n",
                static_cast<long long>(r.circuit_height));
    std::printf("  occupancy factor  : %lld\n",
                static_cast<long long>(r.occupancy_factor));
    std::printf("  cost-array probes : %lld\n", static_cast<long long>(r.work.probes));
    std::printf("  routes evaluated  : %lld\n",
                static_cast<long long>(r.work.routes_evaluated));
    if (show) render(r.cost);
    return 0;
  }

  locus::obs::Obs obs(locus::obs::ObsOptions{.trace = !trace_path.empty(),
                                             .hop_detail = cli.get_bool("hop-detail")});
  locus::obs::Obs* const sink = observe ? &obs : nullptr;
  locus::ShmConfig shm_config;
  shm_config.procs = procs;
  shm_config.iterations = iterations;
  shm_config.obs = sink;
  if (method.has_value()) {
    const locus::MeshShape mesh = locus::fitted_mesh(circuit, procs);
    const locus::Partition partition(circuit.channels(), circuit.grids(), mesh);
    const locus::Assignment assignment = make_assignment(circuit, partition, *method);

    std::printf("circuit %s, %d procs (%dx%d mesh), assignment %s\n",
                circuit.name().c_str(), procs, partition.mesh().rows,
                partition.mesh().cols, cli.get("assign").c_str());
    std::printf("assignment imbalance: %.2fx by count, %.2fx by cost; "
                "locality estimate %.2f hops\n\n",
                assignment.count_imbalance(), assignment.cost_imbalance(circuit),
                locus::locality_estimate(circuit, assignment, partition));

    if (paradigm == "mp") {
      locus::MpConfig config;
      config.iterations = iterations;
      config.schedule = schedule;
      config.obs = sink;

      locus::MpRunResult r =
          run_message_passing(circuit, partition, assignment, config);
      std::printf("message passing run:\n");
      std::printf("  circuit height    : %lld tracks\n",
                  static_cast<long long>(r.circuit_height));
      std::printf("  occupancy factor  : %lld\n",
                  static_cast<long long>(r.occupancy_factor));
      std::printf("  bytes transferred : %.3f MB (%llu packets)\n", r.mbytes(),
                  static_cast<unsigned long long>(r.network.packets));
      std::printf("  execution time    : %.3f simulated seconds\n", r.seconds());
      std::printf("  updates suppressed: %lld, requests sent: %lld\n",
                  static_cast<long long>(r.updates_suppressed),
                  static_cast<long long>(r.requests_sent));
      std::printf("  locality measure  : %.2f hops\n",
                  locality_measure(r.routes, assignment, partition));
      if (show) render(locus::rebuild_cost(circuit.channels(), circuit.grids(), r.routes));
      return emit(obs, metrics_path, trace_path);
    }
    shm_config.assignment = assignment;
  } else {
    std::printf("circuit %s, %d procs, distributed loop (no static assignment)\n\n",
                circuit.name().c_str(), procs);
  }

  locus::ShmRunResult r = run_shared_memory(circuit, shm_config);
  locus::CoherenceParams params;
  params.line_size = line_size;
  params.protocol = protocol;
  locus::CoherenceSim sim(procs, params);
  sim.replay(r.trace);
  if (observe) sim.publish_obs(obs);
  const locus::CoherenceTraffic& t = sim.traffic();

  std::printf("shared memory run:\n");
  std::printf("  circuit height    : %lld tracks\n",
              static_cast<long long>(r.circuit_height));
  std::printf("  occupancy factor  : %lld\n",
              static_cast<long long>(r.occupancy_factor));
  std::printf("  execution time    : %.3f simulated seconds\n", r.seconds());
  std::printf("  shared references : %zu traced\n", r.trace.size());
  std::printf("  coherence traffic : %.3f MB at %d-byte lines, protocol %s "
              "(%.0f%% caused by writes)\n",
              static_cast<double>(t.total_bytes()) / 1e6, params.line_size,
              cli.get("protocol").c_str(), t.write_fraction() * 100.0);
  std::printf("  traffic by cause  : cold %.3f / refetch %.3f / fills %.3f / "
              "words %.3f / flushes %.3f MB\n",
              static_cast<double>(t.cold_fetch_bytes) / 1e6,
              static_cast<double>(t.refetch_bytes) / 1e6,
              static_cast<double>(t.write_fetch_bytes) / 1e6,
              static_cast<double>(t.word_write_bytes) / 1e6,
              static_cast<double>(t.read_flush_bytes + t.write_flush_bytes) / 1e6);
  std::printf("  invalidations     : %llu, bus busy %.3f s\n",
              static_cast<unsigned long long>(t.invalidation_msgs),
              static_cast<double>(locus::estimate_bus(t).busy_ns()) / 1e9);
  if (show) render(r.cost);
  return emit(obs, metrics_path, trace_path);
}

}  // namespace

int main(int argc, char** argv) {
  locus::Cli cli;
  cli.flag("paradigm", "seq (sequential), mp (message passing) or shm (shared memory)",
           "mp");
  cli.flag("circuit", "bnre | mdc | tiny | path to .ckt", "bnre");
  cli.flag("procs", "number of processors (mp and shm)", "16");
  cli.flag("iterations", "routing iterations", "2");
  cli.flag("assign",
           "rr | tc30 | tc1000 | inf (mp and shm), or loop (shm only: no static "
           "assignment)",
           "tc1000");
  cli.flag("send-rmt", "SendRmtData period in wires (0 = off; mp only)", "0");
  cli.flag("send-loc", "SendLocData period in wires (0 = off; mp only)", "0");
  cli.flag("req-loc", "ReqLocData request threshold (0 = off; mp only)", "0");
  cli.flag("req-rmt", "ReqRmtData touch threshold (0 = off; mp only)", "0");
  cli.flag("blocking", "block until requested updates arrive (mp only)", false);
  cli.flag("line-size", "cache line size in bytes (shm only)", "8");
  cli.flag("protocol", "coherence protocol: wbi | wt | mesi | dragon (shm only)", "wbi");
  cli.flag("render", "print the track table and an ASCII window of the cost array", false);
  cli.flag("metrics", "write the obs metrics CSV here (mp and shm)", "");
  cli.flag("trace", "write the obs Chrome trace JSON here (mp and shm)", "");
  cli.flag("hop-detail", "per-hop trace instants (voluminous; needs --trace)", false);
  if (!cli.parse(argc, argv)) return 1;
  try {
    return run(cli);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "strategy_explorer: %s\n", e.what());
    return 1;
  }
}
