// Tests for the cost array and the delta array (dirty tracking, bounding
// boxes, span writes, extraction, and the rip-up/re-route cancellation
// property).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "grid/cost_array.hpp"
#include "grid/delta_array.hpp"
#include "support/rng.hpp"

namespace locus {
namespace {

TEST(CostArray, StartsAtInitialValue) {
  CostArray a(3, 5, 7);
  for (std::int32_t c = 0; c < 3; ++c) {
    for (std::int32_t x = 0; x < 5; ++x) {
      EXPECT_EQ(a.at({c, x}), 7);
    }
  }
}

TEST(CostArray, AddAndRead) {
  CostArray a(3, 5);
  a.add({1, 2}, 3);
  a.add({1, 2}, -1);
  EXPECT_EQ(a.at({1, 2}), 2);
  EXPECT_EQ(a.read({1, 2}), 2);
  EXPECT_EQ(a.at({0, 0}), 0);
}

TEST(CostArray, ReadClampsNegativeValues) {
  CostArray a(2, 2);
  a.add({0, 0}, -5);
  EXPECT_EQ(a.at({0, 0}), -5);  // raw value preserved
  EXPECT_EQ(a.read({0, 0}), 0); // routing-decision read clamps
}

TEST(CostArray, IndexIsRowMajor) {
  CostArray a(3, 10);
  EXPECT_EQ(a.index({0, 0}), 0);
  EXPECT_EQ(a.index({0, 9}), 9);
  EXPECT_EQ(a.index({1, 0}), 10);
  EXPECT_EQ(a.index({2, 7}), 27);
}

TEST(CostArray, RectRoundTrip) {
  CostArray a(4, 8);
  Rect box = Rect::of(1, 2, 3, 6);
  std::vector<std::int32_t> values(static_cast<std::size_t>(box.area()));
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<int>(i) + 1;
  a.write_rect(box, values);
  std::vector<std::int32_t> out;
  a.read_rect(box, out);
  EXPECT_EQ(out, values);
  EXPECT_EQ(a.at({1, 3}), 1);
  EXPECT_EQ(a.at({2, 6}), 8);
  EXPECT_EQ(a.at({0, 3}), 0);  // outside the box untouched
}

TEST(CostArray, AddRectAccumulates) {
  CostArray a(4, 8, 1);
  Rect box = Rect::of(0, 1, 0, 1);
  std::vector<std::int32_t> deltas = {1, 2, 3, 4};
  a.add_rect(box, deltas);
  EXPECT_EQ(a.at({0, 0}), 2);
  EXPECT_EQ(a.at({0, 1}), 3);
  EXPECT_EQ(a.at({1, 0}), 4);
  EXPECT_EQ(a.at({1, 1}), 5);
}

TEST(CostArray, MaxInChannel) {
  CostArray a(2, 4);
  a.set({0, 2}, 9);
  a.set({1, 0}, 3);
  EXPECT_EQ(a.max_in_channel(0), 9);
  EXPECT_EQ(a.max_in_channel(1), 3);
}

TEST(CostArray, EqualityComparesCells) {
  CostArray a(2, 2), b(2, 2);
  EXPECT_TRUE(a == b);
  b.add({1, 1}, 1);
  EXPECT_FALSE(a == b);
}

/// Tiles of 2x8 cells, so the cancellation and extraction cases below
/// cross tile edges in both dimensions.
constexpr TileDims kSmallTiles{2, 8};

class DeltaArrayTest : public ::testing::Test {
 protected:
  DeltaArrayTest() : part_(6, 40, MeshShape{2, 2}), delta_(part_, kSmallTiles) {}
  Partition part_;
  DeltaArray delta_;
};

TEST_F(DeltaArrayTest, StartsClean) {
  for (ProcId r = 0; r < 4; ++r) {
    EXPECT_FALSE(delta_.region_dirty(r));
    EXPECT_TRUE(delta_.dirty_bbox(r).is_empty());
    EXPECT_EQ(delta_.nonzero_count(r), 0);
  }
}

TEST_F(DeltaArrayTest, AddMarksOwningRegionOnly) {
  GridPoint p{0, 0};  // region 0
  delta_.add(p, 1);
  EXPECT_TRUE(delta_.region_dirty(0));
  EXPECT_FALSE(delta_.region_dirty(1));
  EXPECT_FALSE(delta_.region_dirty(2));
  EXPECT_EQ(delta_.at(p), 1);
}

TEST_F(DeltaArrayTest, CancellationCleansRegion) {
  // The rip-up/re-route cancellation the paper credits for the traffic gap:
  // +1 then -1 on the same cell leaves nothing to send.
  GridPoint p{1, 5};
  delta_.add(p, 1);
  EXPECT_TRUE(delta_.region_dirty(0));
  delta_.add(p, -1);
  EXPECT_FALSE(delta_.region_dirty(0));
  EXPECT_TRUE(delta_.dirty_bbox(0).is_empty());
  EXPECT_TRUE(delta_.extract_region(0, delta_.whole_grid()).empty());
}

TEST_F(DeltaArrayTest, ExtractReturnsTightBboxAndClears) {
  delta_.add({0, 2}, 1);
  delta_.add({2, 8}, -2);
  // Conservative bbox covers both; extraction tightens to exactly them.
  const std::vector<UpdateBlock> blocks = delta_.extract_region(0, delta_.whole_grid());
  ASSERT_EQ(blocks.size(), 1u);
  const UpdateBlock& extract = blocks.front();
  EXPECT_EQ(extract.bbox, Rect::of(0, 2, 2, 8));
  EXPECT_EQ(extract.values.size(), static_cast<std::size_t>(3 * 7));
  EXPECT_EQ(extract.values.front(), 1);   // (0,2)
  EXPECT_EQ(extract.values.back(), -2);   // (2,8)
  EXPECT_FALSE(delta_.region_dirty(0));
  EXPECT_EQ(delta_.at({0, 2}), 0);
}

TEST_F(DeltaArrayTest, BboxTightensAfterPartialCancellation) {
  delta_.add({0, 0}, 1);
  delta_.add({2, 9}, 1);
  delta_.add({2, 9}, -1);  // outer corner cancels
  ASSERT_TRUE(delta_.region_dirty(0));
  const std::vector<UpdateBlock> blocks = delta_.extract_region(0, delta_.whole_grid());
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks.front().bbox, Rect::single({0, 0}));  // tightened by the scan
}

TEST_F(DeltaArrayTest, ScanCostReported) {
  delta_.add({0, 0}, 1);
  delta_.add({1, 10}, 1);
  delta_.extract_region(0, delta_.whole_grid());
  // Conservative box spans channels 0..1, x 0..10 => 22 cells scanned.
  EXPECT_EQ(delta_.last_scan_cells(), 22);
}

TEST_F(DeltaArrayTest, RegionsAreIndependent) {
  delta_.add({0, 0}, 1);    // region 0
  delta_.add({0, 25}, 1);   // region 1 (x >= 20)
  delta_.add({4, 0}, 1);    // region 2 (channel >= 3)
  EXPECT_TRUE(delta_.region_dirty(0));
  EXPECT_TRUE(delta_.region_dirty(1));
  EXPECT_TRUE(delta_.region_dirty(2));
  delta_.extract_region(1, delta_.whole_grid());
  EXPECT_TRUE(delta_.region_dirty(0));
  EXPECT_FALSE(delta_.region_dirty(1));
  EXPECT_TRUE(delta_.region_dirty(2));
}

/// A random row span of the 8 x 32 property grids: any length, so spans
/// cross the region band at column 16 and the tile edges every 8 columns.
struct Span {
  std::int32_t channel;
  std::int32_t x_lo;
  std::vector<std::int32_t> values;  // one per column from x_lo
};

Span random_span(Rng& rng, std::int32_t channels, std::int32_t grids) {
  Span span;
  span.channel = static_cast<std::int32_t>(rng.bounded(channels));
  span.x_lo = static_cast<std::int32_t>(rng.bounded(grids));
  const auto len = 1 + rng.bounded(static_cast<std::uint64_t>(grids - span.x_lo));
  span.values.resize(len);
  if (rng.chance(0.5)) {  // constant delta, as a route commit or rip-up
    const auto d = static_cast<std::int32_t>(rng.bounded(5)) - 2;
    std::fill(span.values.begin(), span.values.end(), d);
  } else {  // arbitrary values with zeros, as a received update row
    for (std::int32_t& v : span.values) v = static_cast<std::int32_t>(rng.bounded(5)) - 2;
  }
  return span;
}

/// Writes `span` (negated if `sign` is -1) through the delta array's span
/// entry points: the constant-delta add_row for a constant span, the
/// values add_row otherwise.
void add_span(DeltaArray& delta, const Span& span, std::int32_t sign) {
  const auto x_hi = span.x_lo + static_cast<std::int32_t>(span.values.size()) - 1;
  if (std::all_of(span.values.begin(), span.values.end(),
                  [&](std::int32_t v) { return v == span.values.front(); })) {
    delta.add_row(span.channel, span.x_lo, x_hi, sign * span.values.front());
    return;
  }
  std::vector<std::int32_t> values = span.values;
  for (std::int32_t& v : values) v *= sign;
  delta.add_row(span.channel, span.x_lo, values);
}

/// Property: against a naive mirror model, dirty flags, counts, dirty
/// boxes, whole-grid sums, extracted boxes and values, and the scan cost
/// the packet time model reads (the conservative box: it grows when a cell
/// turns nonzero and resets when its region goes clean) always agree, for
/// random sequences of single-cell adds and row spans of either sign —
/// spans crossing region bands and tile edges, and span pairs that cancel
/// exactly. The mirror applies a span cell by cell, left to right.
class DeltaArrayProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaArrayProperty, AgreesWithMirrorModel) {
  constexpr std::int32_t kChannels = 8;
  constexpr std::int32_t kGrids = 32;
  Partition part(kChannels, kGrids, MeshShape{2, 2});
  DeltaArray delta(part, kSmallTiles);
  std::vector<std::int32_t> mirror(kChannels * kGrids, 0);
  std::vector<std::int64_t> region_nonzero(4, 0);
  std::vector<Rect> scan_box(4);
  auto cell = [&](std::int32_t c, std::int32_t x) -> std::int32_t& {
    return mirror[static_cast<std::size_t>(c) * kGrids + x];
  };
  auto mirror_add = [&](GridPoint p, std::int32_t d) {
    const bool was_zero = cell(p.channel, p.x) == 0;
    cell(p.channel, p.x) += d;
    const bool is_zero = cell(p.channel, p.x) == 0;
    const auto owner = static_cast<std::size_t>(part.owner(p));
    if (was_zero && !is_zero) {
      ++region_nonzero[owner];
      scan_box[owner].expand(p);
    } else if (!was_zero && is_zero && --region_nonzero[owner] == 0) {
      scan_box[owner] = Rect::empty();
    }
  };
  auto mirror_span = [&](const Span& span, std::int32_t sign) {
    for (std::size_t i = 0; i < span.values.size(); ++i) {
      mirror_add(GridPoint{span.channel, span.x_lo + static_cast<std::int32_t>(i)},
                 sign * span.values[i]);
    }
  };
  Rng rng(GetParam());

  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t op = rng.bounded(4);
    if (op == 0) {
      const GridPoint p{static_cast<std::int32_t>(rng.bounded(kChannels)),
                        static_cast<std::int32_t>(rng.bounded(kGrids))};
      const auto d = static_cast<std::int32_t>(rng.bounded(5)) - 2;
      delta.add(p, d);
      mirror_add(p, d);
    } else {
      const Span span = random_span(rng, kChannels, kGrids);
      add_span(delta, span, +1);
      mirror_span(span, +1);
      if (op == 3) {  // the rip-up of that commit: every cell cancels
        add_span(delta, span, -1);
        mirror_span(span, -1);
      }
    }

    if (step % 97 != 0) continue;
    std::vector<std::int64_t> sums(mirror.size(), 0);
    delta.accumulate(Rect::of(0, kChannels - 1, 0, kGrids - 1), sums);
    ASSERT_TRUE(std::equal(sums.begin(), sums.end(), mirror.begin()));
    for (ProcId r = 0; r < 4; ++r) {
      ASSERT_EQ(delta.dirty_bbox(r), scan_box[static_cast<std::size_t>(r)]) << r;
      ASSERT_EQ(delta.nonzero_count(r), region_nonzero[static_cast<std::size_t>(r)]);
    }

    const auto region = static_cast<ProcId>(rng.bounded(4));
    const Rect& r = part.region(region);
    std::int64_t nonzero = 0;
    Rect tight;
    for (std::int32_t c = r.channel_lo; c <= r.channel_hi; ++c) {
      for (std::int32_t x = r.x_lo; x <= r.x_hi; ++x) {
        if (cell(c, x) == 0) continue;
        ++nonzero;
        tight.expand(GridPoint{c, x});
      }
    }
    ASSERT_EQ(delta.nonzero_count(region), nonzero);
    ASSERT_EQ(delta.region_dirty(region), nonzero > 0);
    const Rect scanned = scan_box[static_cast<std::size_t>(region)];
    scan_box[static_cast<std::size_t>(region)] = Rect::empty();
    region_nonzero[static_cast<std::size_t>(region)] = 0;
    const std::vector<UpdateBlock> blocks = delta.extract_region(region, delta.whole_grid());
    ASSERT_EQ(blocks.size(), nonzero > 0 ? 1u : 0u);
    ASSERT_EQ(delta.last_scan_cells(), scanned.area());
    ASSERT_FALSE(delta.region_dirty(region));
    if (blocks.empty()) continue;
    const UpdateBlock& extract = blocks.front();
    ASSERT_EQ(extract.bbox, tight);
    // Apply extraction to the mirror: those deltas are now propagated.
    std::size_t i = 0;
    for (std::int32_t c = tight.channel_lo; c <= tight.channel_hi; ++c) {
      for (std::int32_t x = tight.x_lo; x <= tight.x_hi; ++x, ++i) {
        ASSERT_EQ(extract.values[i], cell(c, x));
        cell(c, x) = 0;
      }
    }
  }
}

/// The block extraction as it was written before it scanned by row chunk,
/// kept as the reference: one per-cell pass over the conservative box that
/// buckets each nonzero cell's tight rectangle in a std::map keyed by
/// (tile row, tile col), then a per-cell copy-out. It clears the taken
/// deltas with add() of their negation, which leaves the same counts and
/// boxes as the extraction's bookkeeping reset.
std::vector<UpdateBlock> map_reference_blocks(DeltaArray& delta, ProcId region,
                                              TileDims dims, std::int64_t* scan_cells) {
  *scan_cells = 0;
  if (!delta.region_dirty(region)) return {};
  const Rect scan = delta.dirty_bbox(region);
  std::map<std::pair<std::int32_t, std::int32_t>, Rect> tight_by_tile;
  for (std::int32_t c = scan.channel_lo; c <= scan.channel_hi; ++c) {
    for (std::int32_t x = scan.x_lo; x <= scan.x_hi; ++x) {
      ++*scan_cells;
      if (delta.at(GridPoint{c, x}) != 0) {
        tight_by_tile[{c / dims.channels, x / dims.cols}].expand(GridPoint{c, x});
      }
    }
  }
  std::vector<UpdateBlock> blocks;
  for (const auto& [tile, tight] : tight_by_tile) {
    UpdateBlock out;
    out.bbox = tight;
    for (std::int32_t c = tight.channel_lo; c <= tight.channel_hi; ++c) {
      for (std::int32_t x = tight.x_lo; x <= tight.x_hi; ++x) {
        out.values.push_back(delta.at(GridPoint{c, x}));
      }
    }
    blocks.push_back(std::move(out));
  }
  for (const UpdateBlock& block : blocks) {
    std::size_t i = 0;
    for (std::int32_t c = block.bbox.channel_lo; c <= block.bbox.channel_hi; ++c) {
      for (std::int32_t x = block.bbox.x_lo; x <= block.bbox.x_hi; ++x, ++i) {
        delta.add(GridPoint{c, x}, -block.values[i]);
      }
    }
  }
  return blocks;
}

/// Property: on identical random span workloads, extract_region
/// returns the map reference's blocks block for block — same order, boxes
/// and values — at the same scan cost, for block shapes equal to, finer
/// than, coarser than and unaligned with the storage tiles, and leaves the
/// same counts, boxes and cells behind.
TEST_P(DeltaArrayProperty, BlocksMatchMapReference) {
  constexpr std::int32_t kChannels = 8;
  constexpr std::int32_t kGrids = 32;
  const TileDims block_dims[] = {kSmallTiles, {1, 4}, {4, 16}, {3, 5}};
  Partition part(kChannels, kGrids, MeshShape{2, 2});
  DeltaArray fast(part, kSmallTiles);
  DeltaArray reference(part, kSmallTiles);
  Rng rng(GetParam());

  for (int step = 0; step < 1500; ++step) {
    const Span span = random_span(rng, kChannels, kGrids);
    add_span(fast, span, +1);
    add_span(reference, span, +1);
    if (step % 13 != 0) continue;

    const auto region = static_cast<ProcId>(rng.bounded(4));
    const TileDims dims = block_dims[rng.bounded(4)];
    std::int64_t reference_scan = 0;
    const auto want = map_reference_blocks(reference, region, dims, &reference_scan);
    const auto got = fast.extract_region(region, dims);
    ASSERT_EQ(fast.last_scan_cells(), reference_scan);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < got.size(); ++b) {
      ASSERT_EQ(got[b].bbox, want[b].bbox) << "block " << b;
      ASSERT_EQ(got[b].values, want[b].values) << "block " << b;
    }
    for (ProcId r = 0; r < 4; ++r) {
      ASSERT_EQ(fast.dirty_bbox(r), reference.dirty_bbox(r)) << r;
      ASSERT_EQ(fast.nonzero_count(r), reference.nonzero_count(r)) << r;
    }
    std::vector<std::int64_t> fast_sums(kChannels * kGrids, 0);
    std::vector<std::int64_t> reference_sums(kChannels * kGrids, 0);
    fast.accumulate(Rect::of(0, kChannels - 1, 0, kGrids - 1), fast_sums);
    reference.accumulate(Rect::of(0, kChannels - 1, 0, kGrids - 1), reference_sums);
    ASSERT_EQ(fast_sums, reference_sums);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaArrayProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace locus
