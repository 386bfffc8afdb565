// Observability tool: run a router with the obs layer attached and export
// the metrics CSV and (optionally) a Chrome trace JSON that loads in
// Perfetto / chrome://tracing.
//
//   $ ./examples/obs_tool mp --circuit=bnre --procs=4 --trace=mp.json
//   $ ./examples/obs_tool shm --circuit=tiny --trace=shm.json --hop-detail
//   $ ./examples/obs_tool summary --circuit=tiny --procs=4
//
// Modes:
//   mp           simulated message passing (receiver- or sender-initiated)
//   shm          deterministic shared memory executor + coherence replay
//   summary      obs counters vs engine statistics cross-check table
#include <cstdio>
#include <string>

#include "circuit/generator.hpp"
#include "coherence/simulator.hpp"
#include "harness/experiments.hpp"
#include "msg/driver.hpp"
#include "obs/obs.hpp"
#include "shm/shm_router.hpp"
#include "support/cli.hpp"

namespace {

locus::Circuit pick_circuit(const std::string& name) {
  if (name == "mdc") return locus::make_mdc_like();
  if (name == "tiny") return locus::make_tiny_test_circuit();
  if (name != "bnre") {
    std::fprintf(stderr, "unknown circuit '%s', using bnre\n", name.c_str());
  }
  return locus::make_bnre_like();
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
    std::fprintf(stderr, "usage: obs_tool mp|shm|summary [flags]\n");
    return 1;
  }

  const std::string mode = cli.positional()[0];
  const locus::Circuit circuit = pick_circuit(cli.get("circuit"));
  const auto procs = static_cast<std::int32_t>(cli.get_int("procs"));
  const auto iterations = static_cast<std::int32_t>(cli.get_int("iterations"));
  const std::string trace_path = cli.get("trace");
  const std::string metrics_path = cli.get("metrics");

#if !LOCUS_OBS_ENABLED
  std::fprintf(stderr,
               "warning: built with LOCUS_OBS=OFF; all counters will be zero\n");
#endif

  locus::ExperimentConfig config;
  config.procs = procs;
  config.iterations = iterations;

  if (mode == "summary") {
    const locus::Table t = run_obs_traffic_summary(circuit, config);
    std::printf("obs vs engine statistics on %s, %d procs:\n%s",
                circuit.name().c_str(), procs, t.render().c_str());
    return 0;
  }

  locus::obs::ObsOptions opt;
  opt.trace = !trace_path.empty();
  opt.hop_detail = cli.get_bool("hop-detail");

  if (mode == "mp") {
    locus::obs::Obs obs(opt);
    const locus::Partition partition(circuit.channels(), circuit.grids(),
                                     locus::MeshShape::for_procs(procs));
    const locus::Assignment assignment = make_assignment(
        circuit, partition, locus::AssignMethod::kThreshold1000);
    const locus::UpdateSchedule schedule =
        cli.get("schedule") == "sender" ? locus::UpdateSchedule::sender(2, 5)
                                        : locus::UpdateSchedule::receiver(1, 30);
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
  if (mode == "shm") {
    locus::obs::Obs obs(opt);
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
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 1;
}
