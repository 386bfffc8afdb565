// Observability tool: run a router with the obs layer attached and export
// the metrics CSV and (optionally) a Chrome trace JSON that loads in
// Perfetto / chrome://tracing.
//
//   $ ./examples/obs_tool mp --circuit=bnre --procs=4 --trace=mp.json
//   $ ./examples/obs_tool shm --circuit=tiny --trace=shm.json --hop-detail
//
// Modes:
//   mp           simulated message passing (receiver- or sender-initiated)
//   shm          deterministic shared memory executor + coherence replay
//
// An unknown mode, circuit or schedule, or a processor or iteration count
// out of range, exits 1 with a message before anything runs.
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "circuit/generator.hpp"
#include "coherence/simulator.hpp"
#include "harness/experiments.hpp"
#include "msg/driver.hpp"
#include "obs/obs.hpp"
#include "shm/shm_router.hpp"
#include "support/cli.hpp"

namespace {

locus::UpdateSchedule pick_schedule(const std::string& name) {
  if (name == "receiver") return locus::UpdateSchedule::receiver(1, 30);
  if (name == "sender") return locus::UpdateSchedule::sender(2, 5);
  throw std::invalid_argument("unknown schedule '" + name +
                              "' (valid: receiver | sender)");
}

/// Writes the CSV/JSON outputs requested on the command line and prints the
/// merged counters to stdout. Returns 0, or 1 on I/O failure.
int emit(const locus::obs::Obs& obs, const std::string& metrics_path,
         const std::string& trace_path) {
  std::printf("%s", obs.counters().metrics_csv().c_str());
  if (!metrics_path.empty()) {
    if (!obs.counters().write_csv(metrics_path)) {
      std::fprintf(stderr, "cannot write metrics to '%s'\n", metrics_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics: %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    if (!obs.trace()->write_chrome_json(trace_path)) {
      std::fprintf(stderr, "cannot write trace to '%s'\n", trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %s (%zu events)\n", trace_path.c_str(),
                 obs.trace()->size());
  }
  return 0;
}

int run(const locus::Cli& cli) {
  const std::string mode = cli.positional()[0];
  if (mode != "mp" && mode != "shm") {
    throw std::invalid_argument("unknown mode '" + mode + "' (valid: mp | shm)");
  }
  const locus::UpdateSchedule schedule = pick_schedule(cli.get("schedule"));
  // The shm replay's coherence model tracks at most 32 caches.
  const std::int32_t procs =
      cli.get_bounded_int("procs", 1, mode == "shm" ? 32 : 1 << 20);
  const std::int32_t iterations = cli.get_bounded_int("iterations", 1, 1 << 20);
  const locus::Circuit circuit = locus::make_named_circuit(cli.get("circuit"));
  const std::string trace_path = cli.get("trace");
  const std::string metrics_path = cli.get("metrics");

  locus::ExperimentConfig config;
  config.procs = procs;
  config.iterations = iterations;

  locus::obs::ObsOptions opt;
  opt.trace = !trace_path.empty();
  opt.hop_detail = cli.get_bool("hop-detail");
  locus::obs::Obs obs(opt);

  if (mode == "mp") {
    const locus::Partition partition(circuit.channels(), circuit.grids(),
                                     locus::fitted_mesh(circuit, procs));
    const locus::Assignment assignment = make_assignment(
        circuit, partition, locus::AssignMethod::kThreshold1000);
    locus::MpConfig mp_config = config.mp(schedule);
    mp_config.obs = &obs;
    const locus::MpRunResult r =
        run_message_passing(circuit, partition, assignment, mp_config);
    std::fprintf(stderr, "mp %s on %s: height=%lld bytes=%llu time=%.3fs\n",
                 cli.get("schedule").c_str(), circuit.name().c_str(),
                 static_cast<long long>(r.circuit_height),
                 static_cast<unsigned long long>(r.bytes_transferred),
                 r.seconds());
    return emit(obs, metrics_path, trace_path);
  }
  locus::ShmConfig shm_config = config.shm();
  shm_config.obs = &obs;
  const locus::ShmRunResult r = run_shared_memory(circuit, shm_config);
  locus::CoherenceSim sim(procs, locus::CoherenceParams{});
  sim.replay(r.trace);
  sim.publish_obs(obs);
  std::fprintf(stderr, "shm on %s: height=%lld refs=%zu time=%.3fs\n",
               circuit.name().c_str(), static_cast<long long>(r.circuit_height),
               r.trace.size(), r.seconds());
  return emit(obs, metrics_path, trace_path);
}

}  // namespace

int main(int argc, char** argv) {
  locus::Cli cli;
  cli.flag("circuit", "bnre | mdc | tiny", "bnre");
  cli.flag("procs", "processors (mesh for mp, loop count for shm)", "4");
  cli.flag("iterations", "routing iterations", "2");
  cli.flag("schedule", "mp schedule: receiver | sender", "receiver");
  cli.flag("trace", "write Chrome trace JSON here", "");
  cli.flag("metrics", "write metrics CSV here", "");
  cli.flag("hop-detail", "per-hop trace instants (voluminous)", "false");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.positional().empty()) {
    std::fprintf(stderr, "usage: obs_tool mp|shm [flags]\n");
    return 1;
  }
  try {
    return run(cli);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "obs_tool: %s\n", e.what());
    return 1;
  }
}
