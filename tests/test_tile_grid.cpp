// TileGrid / TiledCostArray / DeltaArray tile tests: a tiled cost array
// must read like a dense CostArray that started at zero (absent tile ==
// zero == initial value), delta sums must match per-cell reads across
// absent tiles, and the region-batched block extraction must cover exactly
// what the single-bbox extraction covers at the same scan cost.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "geom/partition.hpp"
#include "grid/cost_array.hpp"
#include "grid/delta_array.hpp"
#include "grid/tile_grid.hpp"
#include "grid/tiled_cost_array.hpp"
#include "support/rng.hpp"

namespace locus {
namespace {

constexpr TileDims kSmallTiles{2, 8};

TEST(TileGrid, AbsentTilesReadZeroAndAllocateOnWrite) {
  TileGrid g(5, 40, kSmallTiles);
  EXPECT_EQ(g.tiles_resident(), 0);
  EXPECT_EQ(g.get({4, 39}), 0);
  EXPECT_EQ(g.tiles_resident(), 0);  // reads never materialize
  g.slot({1, 9}) = 7;
  EXPECT_EQ(g.tiles_resident(), 1);
  EXPECT_EQ(g.get({1, 9}), 7);
  EXPECT_EQ(g.get({1, 8}), 0);  // same tile, zero-filled
  g.slot({1, 8}) += 3;          // same tile: no new allocation
  EXPECT_EQ(g.tiles_resident(), 1);
  g.slot({4, 39}) = -2;
  EXPECT_EQ(g.tiles_resident(), 2);
  g.clear();
  EXPECT_EQ(g.tiles_resident(), 0);
  EXPECT_EQ(g.get({1, 9}), 0);
}

TEST(TileGrid, TileCountsCoverTheGrid) {
  TileGrid g(5, 40, TileDims{4, 8});
  EXPECT_EQ(g.tile_channels(), 4);
  EXPECT_EQ(g.tile_cols(), 8);
  EXPECT_EQ(g.tiles_total(), 2 * 5);  // ceil(5/4) x ceil(40/8)
  EXPECT_EQ(g.tile_cells(), 32);
}

TEST(TileGrid, RowChunkRunsToTileOrGridEdge) {
  TileGrid g(4, 20, kSmallTiles);  // tile cols = 8 -> boundaries at 8, 16
  std::int32_t run = 0;
  EXPECT_EQ(g.row_chunk(0, 3, &run), nullptr);  // absent tile
  EXPECT_EQ(run, 5);                            // 3..7 inside the first tile
  g.slot({0, 5}) = 11;
  const std::int32_t* chunk = g.row_chunk(0, 3, &run);
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(run, 5);
  EXPECT_EQ(chunk[2], 11);  // offset 2 == column 5
  // Last tile is clipped by the grid edge: columns 16..19.
  g.row_chunk(0, 17, &run);
  EXPECT_EQ(run, 3);
}

TEST(TileGrid, EnsureRectMaterializesExactlyTheCoveredTiles) {
  TileGrid g(6, 32, kSmallTiles);  // 3 x 4 tiles
  g.ensure_rect(Rect::of(1, 2, 6, 9));  // spans tile rows 0-1, tile cols 0-1
  EXPECT_EQ(g.tiles_resident(), 4);
  EXPECT_EQ(g.get({2, 9}), 0);
}

TEST(TileGrid, ForEachResidentTileClipsBoundsAndUsesFullStride) {
  TileGrid g(5, 20, kSmallTiles);  // edge tiles clipped at channel 4, col 19
  g.slot({4, 18}) = 42;
  std::int32_t seen = 0;
  g.for_each_resident_tile([&](const Rect& bounds, const std::int32_t* cells) {
    ++seen;
    EXPECT_EQ(bounds, Rect::of(4, 4, 16, 19));
    // Storage keeps the full tile_cols stride regardless of clipping.
    EXPECT_EQ(cells[(18 - bounds.x_lo)], 42);
  });
  EXPECT_EQ(seen, 1);
}

/// Mirrored random workload: every mutation lands on both a dense CostArray
/// (initial 0) and a TiledCostArray; every read path must agree, including
/// reads that straddle absent tiles.
TEST(TiledCostArray, RandomOpsMatchDenseReference) {
  constexpr std::int32_t kChannels = 7;
  constexpr std::int32_t kGrids = 53;
  CostArray dense(kChannels, kGrids);
  TiledCostArray tiled(kChannels, kGrids, kSmallTiles);
  Rng rng(2026);
  for (int op = 0; op < 4000; ++op) {
    const GridPoint p{static_cast<std::int32_t>(rng.bounded(kChannels)),
                      static_cast<std::int32_t>(rng.bounded(kGrids))};
    const auto delta = static_cast<std::int32_t>(rng.bounded(21)) - 10;
    if (rng.chance(0.5)) {
      dense.add(p, delta);
      tiled.add(p, delta);
    } else {
      dense.set(p, delta);
      tiled.set(p, delta);
    }
  }
  for (std::int32_t c = 0; c < kChannels; ++c) {
    for (std::int32_t x = 0; x < kGrids; ++x) {
      ASSERT_EQ(tiled.at({c, x}), dense.at({c, x})) << c << "," << x;
      ASSERT_EQ(tiled.read({c, x}), dense.read({c, x}));  // clamp agrees
    }
    EXPECT_EQ(tiled.max_in_channel(c), dense.max_in_channel(c)) << c;
  }
  // Bulk reads across random rects (absent tiles must zero-fill).
  for (int trial = 0; trial < 200; ++trial) {
    const auto c_lo = static_cast<std::int32_t>(rng.bounded(kChannels));
    const auto c_hi = c_lo + static_cast<std::int32_t>(
                                 rng.bounded(kChannels - c_lo));
    const auto x_lo = static_cast<std::int32_t>(rng.bounded(kGrids));
    const auto x_hi =
        x_lo + static_cast<std::int32_t>(rng.bounded(kGrids - x_lo));
    const Rect box = Rect::of(c_lo, c_hi, x_lo, x_hi);
    std::vector<std::int32_t> want;
    std::vector<std::int32_t> got;
    dense.read_rect(box, want);
    tiled.read_rect(box, got);
    ASSERT_EQ(got, want) << "trial " << trial;
    std::vector<std::int32_t> want_rows(want.size());
    std::vector<std::int32_t> got_rows(want.size());
    dense.read_rows(c_lo, c_hi, x_lo, x_hi, want_rows);
    tiled.read_rows(c_lo, c_hi, x_lo, x_hi, got_rows);
    ASSERT_EQ(got_rows, want_rows) << "trial " << trial;
  }
}

TEST(TiledCostArray, MaxInChannelAllNegativeOrAbsent) {
  TiledCostArray tiled(3, 24, kSmallTiles);
  CostArray dense(3, 24);
  EXPECT_EQ(tiled.max_in_channel(0), dense.max_in_channel(0));  // fully absent
  tiled.set({1, 3}, -5);
  dense.set({1, 3}, -5);
  // A resident negative must not beat the implicit zeros of absent tiles.
  EXPECT_EQ(tiled.max_in_channel(1), dense.max_in_channel(1));
}

TEST(TiledCostArray, WriteAddRectAndFillZero) {
  TiledCostArray tiled(4, 32, kSmallTiles);
  CostArray dense(4, 32);
  const Rect box = Rect::of(1, 2, 5, 20);
  std::vector<std::int32_t> values(static_cast<std::size_t>(box.area()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<std::int32_t>(i % 7) - 3;
  }
  tiled.write_rect(box, values);
  dense.write_rect(box, values);
  tiled.add_rect(box, values);
  dense.add_rect(box, values);
  std::vector<std::int32_t> want;
  std::vector<std::int32_t> got;
  dense.read_rect(dense.bounds(), want);
  tiled.read_rect(tiled.bounds(), got);
  EXPECT_EQ(got, want);
  EXPECT_GT(tiled.resident_bytes(), 0);
  tiled.fill(0);
  EXPECT_EQ(tiled.resident_cells(), 0);
  EXPECT_EQ(tiled.at({1, 5}), 0);
}

TEST(DeltaArrayTiled, FullCancellationSuppressesExtraction) {
  const Partition partition(8, 64, MeshShape::for_procs(4));
  DeltaArray tiled(partition, kSmallTiles);
  tiled.add({0, 3}, 5);
  tiled.add({1, 10}, -2);
  tiled.add({0, 3}, -5);
  tiled.add({1, 10}, 2);
  EXPECT_FALSE(tiled.extract_region(partition.owner({0, 3})).has_value());
}

/// Block extraction against the single-bbox form on identical delta state:
/// same scan cost, disjoint in-region blocks, and cell-for-cell identical
/// coverage of the nonzero deltas.
TEST(DeltaArrayTiled, RegionBlocksCoverSingleBboxExtraction) {
  const Partition partition(8, 64, MeshShape::for_procs(4));
  Rng rng(4242);
  for (int round = 0; round < 20; ++round) {
    DeltaArray whole(partition, kSmallTiles);
    DeltaArray split(partition, kSmallTiles);
    for (int i = 0; i < 250; ++i) {
      const GridPoint p{static_cast<std::int32_t>(rng.bounded(8)),
                        static_cast<std::int32_t>(rng.bounded(64))};
      const auto d = static_cast<std::int32_t>(rng.bounded(9)) - 4;
      whole.add(p, d);
      split.add(p, d);
    }
    for (ProcId r = 0; r < 4; ++r) {
      std::optional<DeltaArray::Extract> single = whole.extract_region(r);
      const std::int64_t single_scan = whole.last_scan_cells();
      std::optional<std::vector<DeltaArray::Extract>> blocks =
          split.extract_region_blocks(r, kSmallTiles);
      ASSERT_EQ(blocks.has_value(), single.has_value());
      ASSERT_EQ(split.last_scan_cells(), single_scan);
      EXPECT_FALSE(split.region_dirty(r));
      if (!single.has_value()) continue;
      // Scatter the block cells into a map; they must be disjoint, inside
      // the region, inside the union bbox, and each block bbox tight enough
      // to be non-empty.
      std::map<std::pair<std::int32_t, std::int32_t>, std::int32_t> from_blocks;
      for (const DeltaArray::Extract& block : *blocks) {
        ASSERT_FALSE(block.bbox.is_empty());
        ASSERT_TRUE(partition.region(r).contains(block.bbox));
        ASSERT_TRUE(single->bbox.contains(block.bbox));
        std::size_t i = 0;
        for (std::int32_t c = block.bbox.channel_lo; c <= block.bbox.channel_hi;
             ++c) {
          for (std::int32_t x = block.bbox.x_lo; x <= block.bbox.x_hi;
               ++x, ++i) {
            const auto [it, inserted] =
                from_blocks.emplace(std::make_pair(c, x), block.values[i]);
            ASSERT_TRUE(inserted) << "blocks overlap at " << c << "," << x;
          }
        }
      }
      // Every nonzero cell of the single extraction appears with the same
      // value; every block cell is within the single bbox with that value.
      std::size_t i = 0;
      for (std::int32_t c = single->bbox.channel_lo;
           c <= single->bbox.channel_hi; ++c) {
        for (std::int32_t x = single->bbox.x_lo; x <= single->bbox.x_hi;
             ++x, ++i) {
          const std::int32_t v = single->values[i];
          const auto it = from_blocks.find({c, x});
          const std::int32_t block_v = it == from_blocks.end() ? 0 : it->second;
          if (v != 0) {
            ASSERT_EQ(block_v, v) << c << "," << x;
          } else {
            ASSERT_EQ(block_v, 0) << c << "," << x;
          }
        }
      }
    }
  }
}

/// accumulate() adds, never overwrites: the sums must equal a per-cell
/// at() sum on any box — the full grid, boxes crossing tile edges, boxes
/// over tiles that were never allocated, and a single cell.
TEST(DeltaArrayTiled, AccumulateMatchesPerCellSums) {
  const Partition partition(8, 64, MeshShape::for_procs(4));
  DeltaArray tiled(partition, kSmallTiles);
  // Writes only into channels 0-3, columns 0-39: tiles of channels 4-7 and
  // of columns 40-63 stay absent.
  Rng rng(2718);
  for (int i = 0; i < 200; ++i) {
    const GridPoint p{static_cast<std::int32_t>(rng.bounded(4)),
                      static_cast<std::int32_t>(rng.bounded(40))};
    const auto d = static_cast<std::int32_t>(rng.bounded(9)) - 4;
    tiled.add(p, d);
  }
  ASSERT_LT(tiled.resident_cells(), std::int64_t{8} * 64);

  const Rect boxes[] = {
      Rect::of(0, 7, 0, 63),    // full grid
      Rect::of(1, 4, 5, 20),    // crosses tile edges in both dimensions
      Rect::of(3, 6, 37, 50),   // mixes resident and absent tiles
      Rect::of(4, 7, 40, 63),   // absent tiles only
      Rect::of(2, 2, 17, 17),   // one cell
  };
  for (const Rect& box : boxes) {
    SCOPED_TRACE(testing::Message() << box.channel_lo << ".." << box.channel_hi
                                    << " x " << box.x_lo << ".." << box.x_hi);
    const auto n = static_cast<std::size_t>(box.area());
    std::vector<std::int64_t> want(n);
    std::size_t i = 0;
    for (std::int32_t c = box.channel_lo; c <= box.channel_hi; ++c) {
      for (std::int32_t x = box.x_lo; x <= box.x_hi; ++x, ++i) {
        want[i] = 1000 + static_cast<std::int64_t>(i) + tiled.at({c, x});
      }
    }
    std::vector<std::int64_t> got(n);
    for (std::size_t k = 0; k < n; ++k) got[k] = 1000 + static_cast<std::int64_t>(k);
    tiled.accumulate(box, got);
    EXPECT_EQ(got, want);
  }
}

}  // namespace
}  // namespace locus
