// Interactive tradeoff explorer: run the message passing or shared memory
// implementation with any update schedule, wire assignment, processor count
// and circuit, and print the paper's metrics for that point.
//
//   $ ./examples/strategy_explorer --paradigm=mp --procs=16 --send-rmt=2
//         (--send-loc=10 --assign=tc1000 --circuit=bnre ...)
//   $ ./examples/strategy_explorer --paradigm=shm --procs=16 --line-size=8
//
// An unknown paradigm or assignment, an unreadable circuit, or a count or
// line size out of range exits 1 with a message before anything runs.
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "assign/locality.hpp"
#include "circuit/generator.hpp"
#include "circuit/io.hpp"
#include "coherence/simulator.hpp"
#include "harness/experiments.hpp"
#include "msg/driver.hpp"
#include "shm/shm_router.hpp"
#include "support/cli.hpp"

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

locus::AssignMethod pick_method(const std::string& name) {
  if (name == "rr") return locus::AssignMethod::kRoundRobin;
  if (name == "tc30") return locus::AssignMethod::kThreshold30;
  if (name == "tc1000") return locus::AssignMethod::kThreshold1000;
  if (name == "inf") return locus::AssignMethod::kThresholdInf;
  throw std::invalid_argument("unknown assignment '" + name +
                              "' (valid: rr | tc30 | tc1000 | inf)");
}

int run(const locus::Cli& cli) {
  const std::string paradigm = cli.get("paradigm");
  if (paradigm != "mp" && paradigm != "shm") {
    throw std::invalid_argument("unknown paradigm '" + paradigm + "' (valid: mp | shm)");
  }
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
  locus::UpdateSchedule schedule;
  schedule.send_rmt_period = cli.get_bounded_int("send-rmt", 0, 1 << 20);
  schedule.send_loc_period = cli.get_bounded_int("send-loc", 0, 1 << 20);
  schedule.req_loc_requests = cli.get_bounded_int("req-loc", 0, 1 << 20);
  schedule.req_rmt_touches = cli.get_bounded_int("req-rmt", 0, 1 << 20);
  schedule.blocking_receiver = cli.get_bool("blocking");
  const locus::AssignMethod method = pick_method(cli.get("assign"));
  locus::Circuit circuit = pick_circuit(cli.get("circuit"));
  const locus::MeshShape mesh = locus::fitted_mesh(circuit, procs);
  const locus::Partition partition(circuit.channels(), circuit.grids(), mesh);
  const locus::Assignment assignment = make_assignment(circuit, partition, method);

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
  } else {
    locus::ShmConfig config;
    config.procs = procs;
    config.iterations = iterations;
    config.assignment = assignment;
    locus::ShmRunResult r = run_shared_memory(circuit, config);

    locus::CoherenceParams params;
    params.line_size = line_size;
    locus::CoherenceSim sim(procs, params);
    sim.replay(r.trace);

    std::printf("shared memory run:\n");
    std::printf("  circuit height    : %lld tracks\n",
                static_cast<long long>(r.circuit_height));
    std::printf("  occupancy factor  : %lld\n",
                static_cast<long long>(r.occupancy_factor));
    std::printf("  execution time    : %.3f simulated seconds\n", r.seconds());
    std::printf("  shared references : %zu traced\n", r.trace.size());
    std::printf("  coherence traffic : %.3f MB at %d-byte lines "
                "(%.0f%% caused by writes)\n",
                static_cast<double>(sim.traffic().total_bytes()) / 1e6,
                params.line_size, sim.traffic().write_fraction() * 100.0);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  locus::Cli cli;
  cli.flag("paradigm", "mp (message passing) or shm (shared memory)", "mp");
  cli.flag("circuit", "bnre | mdc | tiny | path to .ckt", "bnre");
  cli.flag("procs", "number of processors", "16");
  cli.flag("iterations", "routing iterations", "2");
  cli.flag("assign", "rr | tc30 | tc1000 | inf", "tc1000");
  cli.flag("send-rmt", "SendRmtData period in wires (0 = off)", "0");
  cli.flag("send-loc", "SendLocData period in wires (0 = off)", "0");
  cli.flag("req-loc", "ReqLocData request threshold (0 = off)", "0");
  cli.flag("req-rmt", "ReqRmtData touch threshold (0 = off)", "0");
  cli.flag("blocking", "block until requested updates arrive", false);
  cli.flag("line-size", "cache line size in bytes (shm only)", "8");
  if (!cli.parse(argc, argv)) return 1;
  try {
    return run(cli);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "strategy_explorer: %s\n", e.what());
    return 1;
  }
}
