// End-to-end benchmark program. One invocation runs one workload:
//
//   locus_perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//
// --trace=0 sets the inputs up several times (setup_s is the median), runs
// one untimed warm-up pass, then repeats timed passes over the workload's
// run set for --seconds and reports the end-to-end metrics (wall_s is the
// sum of each run's fastest time over the passes). --trace=1
// alternates untraced and traced iterations (set-up + pass) for --seconds
// and reports each layer's self time, the layer counts, and the tracing
// overhead. Either way the last stdout line is one JSON object; a failed
// correctness check makes the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/sim_pool.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Inputs;
using perfbench::PassResult;
using perfbench::Tracer;
using perfbench::WorkloadSpec;

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

std::string format_number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Runs and failures over every pass, plus the determinism gate: each pass
/// must reproduce the warm-up pass's counts exactly.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void add(const PassResult& pass, const PassResult& reference) {
    attempted += pass.runs;
    failed += static_cast<std::int64_t>(pass.failures.size());
    for (const std::string& f : pass.failures) std::fprintf(stderr, "FAILED %s\n", f.c_str());
    if (pass.counts != reference.counts) {
      ++failed;
      std::fprintf(stderr, "FAILED pass counts differ from the warm-up pass\n");
    }
  }
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + format_number(v) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Set-ups timed before the warm-up pass. One more is timed before every
/// timed pass, so their median (setup_s) samples the host across the whole
/// run rather than its first milliseconds.
constexpr int kSetupReps = 10;
/// Lower bounds on timed passes and traced iterations.
constexpr int kMinPasses = 3;
constexpr int kMinTracedIterations = 2;

std::vector<Metric> measure_end_to_end(const WorkloadSpec& spec, std::uint64_t seed,
                                       double seconds, Tally& tally) {
  std::vector<double> setups;
  auto set_up = [&] {
    locus::Stopwatch sw;
    Inputs inputs = perfbench::make_inputs(spec, seed, nullptr);
    setups.push_back(sw.seconds());
    return inputs;
  };
  for (int i = 0; i < kSetupReps; ++i) set_up();
  // Warm-up: arena slabs and first-touch pages are paid here, not timed.
  const PassResult reference = perfbench::run_pass(spec, set_up(), nullptr);

  // wall_s sums each run's fastest time over the passes. Host contention
  // only ever adds time, and on a shared host it comes in bursts of
  // seconds: the median pass wall moved 13-32% between runs
  // (README.md, "Host noise").
  std::vector<double> walls;
  std::vector<double> fastest;
  locus::Stopwatch budget;
  while (static_cast<int>(walls.size()) < kMinPasses || budget.seconds() < seconds) {
    const Inputs inputs = set_up();
    locus::Stopwatch sw;
    const PassResult pass = perfbench::run_pass(spec, inputs, nullptr);
    walls.push_back(sw.seconds());
    tally.add(pass, reference);
    if (fastest.empty()) fastest = pass.run_seconds;
    for (std::size_t i = 0; i < fastest.size(); ++i) {
      fastest[i] = std::min(fastest[i], pass.run_seconds[i]);
    }
  }
  double wall = 0.0;
  for (double s : fastest) wall += s;
  std::printf("%s seed=%llu: %zu passes of %zu runs, wall %.4f s (pass median %.4f, "
              "min %.4f, max %.4f), setup median %.5f s over %zu\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed), walls.size(),
              fastest.size(), wall, median(walls),
              *std::min_element(walls.begin(), walls.end()),
              *std::max_element(walls.begin(), walls.end()), median(setups), setups.size());

  const auto& c = reference.counts;
  return {
      {"wall_s", wall, "s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ckt_height", static_cast<double>(c.at("ckt_height")), "cells"},
      {"traffic_bytes", static_cast<double>(c.at("traffic_bytes")), "B"},
      {"sim_time_ms", static_cast<double>(c.at("sim_time_ns")) / 1e6, "ms"},
  };
}

/// Span names and the per-layer time metric each reports.
constexpr std::pair<const char*, const char*> kLayerSpans[] = {
    {"circuit.generate", "circuit.generate_s"},
    {"assign.make", "assign.make_s"},
    {"msg.run", "msg.run_s"},
    {"shm.run", "shm.run_s"},
    {"coherence.replay", "coherence.replay_s"},
    {"route.seq", "route.seq_s"},
    {"check.legality", "check.legality_s"},
    {"check.consistency", "check.consistency_s"},
};
/// Root span of one traced iteration; its self time is what no layer span
/// covers (partitioning, the benchmark's own bookkeeping).
constexpr const char* kRootSpan = "benchmark";

/// The layer shares each workload was chosen for (README.md); the traced
/// run states whether they hold.
void report_where_work_sits(const std::string& workload,
                            const std::map<std::string, double>& self_s, double wall) {
  auto share = [&](const char* layer) {
    const auto it = self_s.find(layer);
    return it == self_s.end() ? 0.0 : ratio(it->second, wall);
  };
  std::string claim;
  bool holds = false;
  if (workload == "paper-bnre") {
    claim = "shm + coherence take most of the wall";
    holds = share("shm.run_s") + share("coherence.replay_s") > 0.5;
  } else if (workload == "scale-10k") {
    claim = "msg.run_s takes most of the wall";
    holds = share("msg.run_s") > 0.5;
  } else if (workload == "checked-faults") {
    claim = "check.consistency_s is the largest self time";
    const auto top = std::max_element(
        self_s.begin(), self_s.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    holds = top != self_s.end() && top->first == "check.consistency_s";
  }
  std::printf("where the work sits: %s -- %s\n", claim.c_str(),
              holds ? "confirmed" : "NOT confirmed by this run");
}

std::vector<Metric> measure_layers(const WorkloadSpec& spec, std::uint64_t seed,
                                   double seconds, Tally& tally) {
  const PassResult reference = [&] {
    const Inputs warm = perfbench::make_inputs(spec, seed, nullptr);
    return perfbench::run_pass(spec, warm, nullptr);
  }();

  // Untraced and traced iterations alternate so host drift hits both alike;
  // their mean difference is the tracing overhead.
  Tracer tracer;
  std::vector<double> untraced;
  std::int32_t traced = 0;
  locus::Stopwatch budget;
  while (traced < kMinTracedIterations || budget.seconds() < seconds) {
    {
      // Timed like the traced root span below: set-up, pass, bookkeeping
      // and freeing the inputs.
      locus::Stopwatch sw;
      {
        const Inputs inputs = perfbench::make_inputs(spec, seed, nullptr);
        tally.add(perfbench::run_pass(spec, inputs, nullptr), reference);
      }
      untraced.push_back(sw.seconds());
    }
    tracer.set_run(traced++);
    perfbench::Scope root(&tracer, kRootSpan);
    const Inputs inputs = perfbench::make_inputs(spec, seed, &tracer);
    tally.add(perfbench::run_pass(spec, inputs, &tracer), reference);
  }

  const double n = static_cast<double>(traced);
  std::map<std::string, double> self_s;  // mean per traced iteration
  for (const auto& [span, metric] : kLayerSpans) self_s[metric] = 0.0;
  double unattributed = 0.0;
  for (const auto& [name, ns] : tracer.self_ns_by_name()) {
    const double s = static_cast<double>(ns) / 1e9 / n;
    if (name == kRootSpan) {
      unattributed = s;
      continue;
    }
    for (const auto& [span, metric] : kLayerSpans) {
      if (name == span) self_s[metric] = s;
    }
  }
  double traced_wall = 0.0;
  for (const perfbench::Span& s : tracer.spans()) {
    if (s.parent < 0) traced_wall += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }
  traced_wall /= n;
  double untraced_wall = 0.0;
  for (double w : untraced) untraced_wall += w;
  untraced_wall /= static_cast<double>(untraced.size());

  std::printf("%s seed=%llu: %d traced iterations, %zu spans\n", spec.name.c_str(),
              static_cast<unsigned long long>(seed), traced, tracer.spans().size());
  std::printf("  %-22s %12s %8s\n", "layer (self time)", "s/iteration", "share");
  double sum = unattributed;
  for (const auto& [metric, s] : self_s) {
    std::printf("  %-22s %12.6f %7.1f%%\n", metric.c_str(), s, 100.0 * ratio(s, traced_wall));
    sum += s;
  }
  std::printf("  %-22s %12.6f %7.1f%%\n", "unattributed_s", unattributed,
              100.0 * ratio(unattributed, traced_wall));
  std::printf("  %-22s %12.6f  (traced wall %.6f s, untraced %.6f s, overhead %+.6f s)\n",
              "sum", sum, traced_wall, untraced_wall, traced_wall - untraced_wall);
  report_where_work_sits(spec.name, self_s, traced_wall);

  const auto& c = reference.counts;
  auto count = [&](const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::vector<Metric> out;
  for (const auto& [metric, s] : self_s) out.push_back({metric, s, "s"});
  const double msg_ns = self_s["msg.run_s"] * 1e9;
  out.insert(out.end(), {
      {"unattributed_s", unattributed, "s"},
      {"trace.wall_s", traced_wall, "s"},
      {"trace.overhead_s", traced_wall - untraced_wall, "s"},
      {"msg.packets", count("msg.packets"), "count"},
      {"msg.bytes", count("msg.bytes"), "B"},
      {"msg.retransmits", count("msg.retransmits"), "count"},
      {"msg.acks", count("msg.acks"), "count"},
      {"msg.goodput_ratio", ratio(count("msg.data_packets"), count("msg.packets")), "ratio"},
      {"sim.events", count("sim.events"), "count"},
      {"sim.host_ns_per_event", ratio(msg_ns, count("sim.events")), "ns"},
      {"sim.link_stalls", count("sim.link_stalls"), "count"},
      {"sim.link_stall_ns", count("sim.link_stall_ns"), "ns"},
      {"sim.routing_ns", count("sim.routing_ns"), "ns"},
      {"sim.msg_software_ns", count("sim.msg_software_ns"), "ns"},
      {"sim.network_copy_ns", count("sim.network_copy_ns"), "ns"},
      {"sim.idle_ns", count("sim.idle_ns"), "ns"},
      {"route.probes", count("route.probes"), "count"},
      {"route.routes_evaluated", count("route.routes_evaluated"), "count"},
      {"route.ns_per_probe", ratio(self_s["route.seq_s"] * 1e9, count("route.seq_probes")),
       "ns"},
      {"grid.view_resident_bytes", count("grid.view_resident_bytes"), "B"},
      {"shm.trace_refs", count("shm.trace_refs"), "count"},
      {"shm.ns_per_ref", ratio(self_s["shm.run_s"] * 1e9, count("shm.trace_refs")), "ns"},
      {"coherence.accesses", count("coherence.accesses"), "count"},
      {"coherence.ns_per_access",
       ratio(self_s["coherence.replay_s"] * 1e9, count("coherence.accesses")), "ns"},
      {"check.cells_checked", count("check.cells_checked"), "count"},
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  locus::Cli cli;
  cli.flag("workload", "paper-bnre | scale-10k | checked-faults", "paper-bnre")
      .flag("seed", "workload seed: every input is generated from it", "1")
      .flag("seconds", "how long the timed passes run", "10")
      .flag("trace", "0: end-to-end metrics, 1: traced per-layer metrics", "0")
      .flag("tiny", "shrink every circuit (self-test inputs)", false);
  if (!cli.parse(argc, argv)) return 2;
  const std::optional<WorkloadSpec> spec =
      perfbench::workload_spec(cli.get("workload"), cli.get_bool("tiny"));
  if (!spec) {
    std::fprintf(stderr, "unknown --workload=%s\n", cli.get("workload").c_str());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double seconds = cli.get_double("seconds");
  const std::int64_t trace = cli.get_int("trace");
  if (trace != 0 && trace != 1) {
    std::fprintf(stderr, "--trace must be 0 or 1\n");
    return 2;
  }
  // Every run is serial: no harness fan-out, no threads beyond this one.
  locus::set_sim_threads(1);

  Tally tally;
  const std::vector<Metric> metrics = trace == 1
                                          ? measure_layers(*spec, seed, seconds, tally)
                                          : measure_end_to_end(*spec, seed, seconds, tally);
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}
