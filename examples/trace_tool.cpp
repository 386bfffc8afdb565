// Trace workflow tool (the Tango methodology made concrete): collect a
// shared-reference trace from a shared memory run to a .trc file, then
// analyze it offline through any coherence protocol and line size.
//
//   $ ./examples/trace_tool collect --circuit=bnre --procs=16 --out=run.trc
//   $ ./examples/trace_tool analyze run.trc --line-size=16 --protocol=dragon
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "assign/assignment.hpp"
#include "circuit/generator.hpp"
#include "coherence/bus.hpp"
#include "coherence/simulator.hpp"
#include "shm/shm_router.hpp"
#include "shm/trace_io.hpp"
#include "support/cli.hpp"

namespace {

std::optional<locus::ProtocolKind> parse_protocol(const std::string& name) {
  if (name == "wbi") return locus::ProtocolKind::kWriteBackInvalidate;
  if (name == "wt") return locus::ProtocolKind::kWriteThrough;
  if (name == "mesi") return locus::ProtocolKind::kMesi;
  if (name == "dragon") return locus::ProtocolKind::kDragon;
  return std::nullopt;
}

/// Routes the named circuit on the shm executor and writes its trace.
int collect(const std::string& circuit_name, std::int32_t procs,
            const std::string& out) {
  const locus::Circuit circuit = locus::make_named_circuit(circuit_name);
  locus::ShmConfig config;
  config.procs = procs;
  const locus::Partition partition(circuit.channels(), circuit.grids(),
                                   locus::fitted_mesh(circuit, procs));
  config.assignment = assign_threshold_cost(circuit, partition, 1000);
  locus::ShmRunResult r = run_shared_memory(circuit, config);
  locus::write_trace_file(out, r.trace);
  std::printf("collected %zu shared references from %s (%d procs) into %s\n",
              r.trace.size(), circuit.name().c_str(), procs, out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  locus::Cli cli;
  cli.flag("circuit", "bnre | mdc | tiny (collect)", "bnre");
  cli.flag("procs", "processors", "16");
  cli.flag("out", "output .trc path (collect)", "run.trc");
  cli.flag("line-size", "cache line bytes (analyze)", "8");
  cli.flag("protocol", "wbi | wt | mesi | dragon (analyze)", "wbi");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.positional().empty()) {
    std::fprintf(stderr, "usage: trace_tool collect|analyze [trace.trc] [flags]\n");
    return 1;
  }

  const std::string mode = cli.positional()[0];

  if (mode == "collect") {
    try {
      // analyze replays into 1..32 caches, so a trace from more processors
      // could never be read back.
      const std::int32_t procs = cli.get_bounded_int("procs", 1, 32);
      return collect(cli.get("circuit"), procs, cli.get("out"));
    } catch (const std::exception& e) {  // a bad flag or an unwritable --out
      std::fprintf(stderr, "collect: %s\n", e.what());
      return 1;
    }
  }

  if (mode == "analyze") {
    if (cli.positional().size() < 2) {
      std::fprintf(stderr, "analyze needs a .trc path\n");
      return 1;
    }
    std::int32_t procs = 0;
    locus::CoherenceParams params;
    try {
      // The coherence model tracks 1..32 caches.
      procs = cli.get_bounded_int("procs", 1, 32);
      params.line_size = cli.get_bounded_int("line-size", params.word_size, 1 << 30);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "analyze: %s\n", e.what());
      return 1;
    }
    if ((params.line_size & (params.line_size - 1)) != 0) {
      std::fprintf(stderr, "analyze: --line-size=%d must be a power of two\n",
                   params.line_size);
      return 1;
    }
    const std::optional<locus::ProtocolKind> protocol = parse_protocol(cli.get("protocol"));
    if (!protocol) {
      std::fprintf(stderr, "analyze: unknown --protocol=%s (valid: wbi, wt, mesi, dragon)\n",
                   cli.get("protocol").c_str());
      return 1;
    }
    params.protocol = *protocol;
    locus::RefTrace trace;
    try {
      trace = locus::read_trace_file(cli.positional()[1]);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "analyze: %s\n", e.what());
      return 1;
    }
    // One stream per processor up to the highest one referenced.
    const auto streams = static_cast<std::int64_t>(trace.streams());
    if (streams > procs) {
      std::fprintf(stderr,
                   "analyze: the trace references processor %lld but --procs=%d; "
                   "pass the --procs it was collected with (at least %lld)\n",
                   static_cast<long long>(streams - 1), procs,
                   static_cast<long long>(streams));
      return 1;
    }
    locus::CoherenceSim sim(procs, params);
    sim.replay(trace);
    const locus::CoherenceTraffic& t = sim.traffic();
    locus::BusEstimate bus = locus::estimate_bus(t);
    std::printf("%zu refs, %d-byte lines, protocol %s:\n", trace.size(),
                params.line_size, cli.get("protocol").c_str());
    std::printf("  total traffic : %.3f MB (%.0f%% caused by writes)\n",
                static_cast<double>(t.total_bytes()) / 1e6,
                t.write_fraction() * 100.0);
    std::printf("  cold %.3f / refetch %.3f / fills %.3f / words %.3f / "
                "flushes %.3f MB\n",
                static_cast<double>(t.cold_fetch_bytes) / 1e6,
                static_cast<double>(t.refetch_bytes) / 1e6,
                static_cast<double>(t.write_fetch_bytes) / 1e6,
                static_cast<double>(t.word_write_bytes) / 1e6,
                static_cast<double>(t.read_flush_bytes + t.write_flush_bytes) / 1e6);
    std::printf("  invalidations : %llu, bus busy %.3f s\n",
                static_cast<unsigned long long>(t.invalidation_msgs),
                static_cast<double>(bus.busy_ns()) / 1e9);
    return 0;
  }

  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 1;
}
