// Tests for the cost array and the delta array (dirty tracking, bounding
// boxes, extraction, and the rip-up/re-route cancellation property).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
  EXPECT_FALSE(delta_.extract_region(0).has_value());
}

TEST_F(DeltaArrayTest, ExtractReturnsTightBboxAndClears) {
  delta_.add({0, 2}, 1);
  delta_.add({2, 8}, -2);
  // Conservative bbox covers both; extraction tightens to exactly them.
  auto extract = delta_.extract_region(0);
  ASSERT_TRUE(extract.has_value());
  EXPECT_EQ(extract->bbox, Rect::of(0, 2, 2, 8));
  EXPECT_EQ(extract->values.size(), static_cast<std::size_t>(3 * 7));
  EXPECT_EQ(extract->values.front(), 1);   // (0,2)
  EXPECT_EQ(extract->values.back(), -2);   // (2,8)
  EXPECT_FALSE(delta_.region_dirty(0));
  EXPECT_EQ(delta_.at({0, 2}), 0);
}

TEST_F(DeltaArrayTest, BboxTightensAfterPartialCancellation) {
  delta_.add({0, 0}, 1);
  delta_.add({2, 9}, 1);
  delta_.add({2, 9}, -1);  // outer corner cancels
  ASSERT_TRUE(delta_.region_dirty(0));
  auto extract = delta_.extract_region(0);
  ASSERT_TRUE(extract.has_value());
  EXPECT_EQ(extract->bbox, Rect::single({0, 0}));  // tightened by the scan
}

TEST_F(DeltaArrayTest, ScanCostReported) {
  delta_.add({0, 0}, 1);
  delta_.add({1, 10}, 1);
  delta_.extract_region(0);
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
  delta_.extract_region(1);
  EXPECT_TRUE(delta_.region_dirty(0));
  EXPECT_FALSE(delta_.region_dirty(1));
  EXPECT_TRUE(delta_.region_dirty(2));
}

/// Property: against a naive mirror model, dirty flags, counts, whole-grid
/// sums, extracted boxes and values, and the scan cost the packet time model
/// reads (the conservative box: it grows when a cell turns nonzero and
/// resets when its region goes clean) always agree, for random sequences
/// of adds of either sign.
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
  Rng rng(GetParam());

  for (int step = 0; step < 2000; ++step) {
    const GridPoint p{static_cast<std::int32_t>(rng.bounded(kChannels)),
                      static_cast<std::int32_t>(rng.bounded(kGrids))};
    const auto d = static_cast<std::int32_t>(rng.bounded(5)) - 2;
    delta.add(p, d);
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

    if (step % 97 != 0) continue;
    std::vector<std::int64_t> sums(mirror.size(), 0);
    delta.accumulate(Rect::of(0, kChannels - 1, 0, kGrids - 1), sums);
    ASSERT_TRUE(std::equal(sums.begin(), sums.end(), mirror.begin()));

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
    auto extract = delta.extract_region(region);
    ASSERT_EQ(extract.has_value(), nonzero > 0);
    ASSERT_EQ(delta.last_scan_cells(), scanned.area());
    ASSERT_FALSE(delta.region_dirty(region));
    if (!extract) continue;
    ASSERT_EQ(extract->bbox, tight);
    // Apply extraction to the mirror: those deltas are now propagated.
    std::size_t i = 0;
    for (std::int32_t c = tight.channel_lo; c <= tight.channel_hi; ++c) {
      for (std::int32_t x = tight.x_lo; x <= tight.x_hi; ++x, ++i) {
        ASSERT_EQ(extract->values[i], cell(c, x));
        cell(c, x) = 0;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaArrayProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace locus
