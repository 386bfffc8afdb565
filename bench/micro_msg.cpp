// google-benchmark microbenchmarks for the message passing substrate:
// delta-array maintenance, region extraction, and update application.
#include <benchmark/benchmark.h>

#include "grid/delta_array.hpp"
#include "grid/tiled_cost_array.hpp"
#include "msg/packets.hpp"
#include "support/rng.hpp"

namespace {

using namespace locus;

void BM_DeltaAdd(benchmark::State& state) {
  Partition part(10, 341, MeshShape::for_procs(16));
  DeltaArray delta(part, TileDims{});
  Rng rng(1);
  for (auto _ : state) {
    GridPoint p{static_cast<std::int32_t>(rng.bounded(10)),
                static_cast<std::int32_t>(rng.bounded(341))};
    delta.add(p, 1);
    delta.add(p, -1);  // cancellation path
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_DeltaAdd);

void BM_DeltaExtract(benchmark::State& state) {
  Partition part(10, 341, MeshShape::for_procs(16));
  DeltaArray delta(part, TileDims{});
  Rng rng(2);
  const std::int64_t touches = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::int64_t i = 0; i < touches; ++i) {
      delta.add({static_cast<std::int32_t>(rng.bounded(3)),
                 static_cast<std::int32_t>(rng.bounded(85))},
                1);
    }
    state.ResumeTiming();
    auto extract = delta.extract_region(0, delta.whole_grid());
    benchmark::DoNotOptimize(extract);
  }
}
BENCHMARK(BM_DeltaExtract)->Arg(8)->Arg(64)->Arg(256);

void BM_ApplyAbsoluteUpdate(benchmark::State& state) {
  TiledCostArray view(10, 341);
  Rect box = Rect::of(0, 2, 0, 84);
  std::vector<std::int32_t> values(static_cast<std::size_t>(box.area()), 3);
  for (auto _ : state) {
    view.write_rect(box, values);
    benchmark::DoNotOptimize(view.at({1, 40}));
  }
  state.SetBytesProcessed(state.iterations() * box.area() * 4);
}
BENCHMARK(BM_ApplyAbsoluteUpdate);

void BM_ApplyDeltaUpdate(benchmark::State& state) {
  TiledCostArray view(10, 341);
  Rect box = Rect::of(0, 2, 0, 84);
  std::vector<std::int32_t> values(static_cast<std::size_t>(box.area()), 1);
  for (auto _ : state) {
    view.add_rect(box, values);
    benchmark::DoNotOptimize(view.at({1, 40}));
  }
  state.SetBytesProcessed(state.iterations() * box.area() * 4);
}
BENCHMARK(BM_ApplyDeltaUpdate);

void BM_PacketSizing(benchmark::State& state) {
  Rect box = Rect::of(0, 4, 10, 90);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        update_packet_bytes(PacketStructure::kBoundingBox, box, true, 12, 880));
    benchmark::DoNotOptimize(
        update_packet_bytes(PacketStructure::kWireBased, box, false, 12, 880));
  }
}
BENCHMARK(BM_PacketSizing);

}  // namespace

BENCHMARK_MAIN();
