// google-benchmark microbenchmarks for the coherence simulator: replay
// throughput per protocol and line size, and the single-pass four-size
// sweep (Table 3) against one replay per size.
#include <benchmark/benchmark.h>

#include <vector>

#include "circuit/generator.hpp"
#include "coherence/simulator.hpp"
#include "shm/shm_router.hpp"

namespace {

using namespace locus;

const RefTrace& tiny_trace() {
  static RefTrace trace = [] {
    ShmConfig config;
    config.procs = 4;
    return run_shared_memory(make_tiny_test_circuit(), config).trace;
  }();
  return trace;
}

void BM_CoherenceReplay(benchmark::State& state) {
  const RefTrace& trace = tiny_trace();
  CoherenceParams params;
  params.line_size = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    CoherenceSim sim(4, params);
    sim.replay(trace);
    benchmark::DoNotOptimize(sim.traffic().total_bytes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_CoherenceReplay)->Arg(4)->Arg(8)->Arg(32);

void BM_CoherenceProtocols(benchmark::State& state) {
  const RefTrace& trace = tiny_trace();
  CoherenceParams params;
  params.line_size = 8;
  params.protocol = static_cast<ProtocolKind>(state.range(0));
  for (auto _ : state) {
    CoherenceSim sim(4, params);
    sim.replay(trace);
    benchmark::DoNotOptimize(sim.traffic().total_bytes());
  }
}
BENCHMARK(BM_CoherenceProtocols)
    ->Arg(static_cast<int>(ProtocolKind::kWriteBackInvalidate))
    ->Arg(static_cast<int>(ProtocolKind::kWriteThrough))
    ->Arg(static_cast<int>(ProtocolKind::kMesi))
    ->Arg(static_cast<int>(ProtocolKind::kDragon));

const std::vector<std::int32_t> kTable3Sizes = {4, 8, 16, 32};

void BM_SweepFused(benchmark::State& state) {
  const RefTrace& trace = tiny_trace();
  for (auto _ : state) {
    auto traffic = sweep_line_sizes(trace, 4, kTable3Sizes);
    benchmark::DoNotOptimize(traffic.back().total_bytes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size() * kTable3Sizes.size()));
}
BENCHMARK(BM_SweepFused);

void BM_SweepPerSize(benchmark::State& state) {
  const RefTrace& trace = tiny_trace();
  for (auto _ : state) {
    for (std::int32_t size : kTable3Sizes) {
      CoherenceParams params;
      params.line_size = size;
      CoherenceSim sim(4, params);
      sim.replay(trace);
      benchmark::DoNotOptimize(sim.traffic().total_bytes());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size() * kTable3Sizes.size()));
}
BENCHMARK(BM_SweepPerSize);

}  // namespace

BENCHMARK_MAIN();
