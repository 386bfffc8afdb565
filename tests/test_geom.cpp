// Unit and property tests for geometry: points, inclusive rectangles, mesh
// shapes, and the cost-array partition.
#include <gtest/gtest.h>

#include <set>

#include "geom/partition.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"

namespace locus {
namespace {

TEST(GridPoint, ManhattanDistance) {
  EXPECT_EQ(manhattan({0, 0}, {0, 0}), 0);
  EXPECT_EQ(manhattan({1, 2}, {4, 6}), 7);
  EXPECT_EQ(manhattan({4, 6}, {1, 2}), 7);
  EXPECT_EQ(manhattan({-1, -2}, {1, 2}), 6);
}

TEST(Rect, DefaultIsEmpty) {
  Rect r;
  EXPECT_TRUE(r.is_empty());
  EXPECT_EQ(r.area(), 0);
  EXPECT_EQ(r.width(), 0);
  EXPECT_EQ(r.height(), 0);
  EXPECT_FALSE(r.contains(GridPoint{0, 0}));
}

TEST(Rect, SingleCell) {
  Rect r = Rect::single({3, 7});
  EXPECT_FALSE(r.is_empty());
  EXPECT_EQ(r.area(), 1);
  EXPECT_TRUE(r.contains(GridPoint{3, 7}));
  EXPECT_FALSE(r.contains(GridPoint{3, 8}));
}

TEST(Rect, AreaIsInclusive) {
  Rect r = Rect::of(1, 3, 10, 14);
  EXPECT_EQ(r.height(), 3);
  EXPECT_EQ(r.width(), 5);
  EXPECT_EQ(r.area(), 15);
}

TEST(Rect, ExpandPoint) {
  Rect r;
  r.expand(GridPoint{2, 5});
  EXPECT_EQ(r, Rect::single({2, 5}));
  r.expand(GridPoint{0, 9});
  EXPECT_EQ(r, Rect::of(0, 2, 5, 9));
  r.expand(GridPoint{1, 7});  // interior point changes nothing
  EXPECT_EQ(r, Rect::of(0, 2, 5, 9));
}

TEST(Rect, ExpandRect) {
  Rect r = Rect::of(0, 1, 0, 1);
  r.expand(Rect::of(3, 4, 3, 4));
  EXPECT_EQ(r, Rect::of(0, 4, 0, 4));
  r.expand(Rect::empty());  // no-op
  EXPECT_EQ(r, Rect::of(0, 4, 0, 4));
  Rect e;
  e.expand(Rect::of(1, 2, 1, 2));
  EXPECT_EQ(e, Rect::of(1, 2, 1, 2));
}

TEST(Rect, Intersection) {
  Rect a = Rect::of(0, 5, 0, 5);
  Rect b = Rect::of(3, 8, 4, 9);
  EXPECT_EQ(Rect::intersection(a, b), Rect::of(3, 5, 4, 5));
  EXPECT_TRUE(a.intersects(b));
  Rect c = Rect::of(6, 7, 0, 5);
  EXPECT_TRUE(Rect::intersection(a, c).is_empty());
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(Rect::intersection(a, Rect::empty()).is_empty());
}

TEST(Rect, ContainsRect) {
  Rect outer = Rect::of(0, 9, 0, 9);
  EXPECT_TRUE(outer.contains(Rect::of(2, 3, 2, 3)));
  EXPECT_TRUE(outer.contains(Rect::empty()));
  EXPECT_FALSE(outer.contains(Rect::of(0, 10, 0, 9)));
  EXPECT_FALSE(Rect::empty().contains(Rect::of(0, 0, 0, 0)));
}

TEST(MeshShape, NearSquareFactorizations) {
  EXPECT_EQ(MeshShape::for_procs(1).rows, 1);
  EXPECT_EQ(MeshShape::for_procs(2).rows, 1);
  EXPECT_EQ(MeshShape::for_procs(2).cols, 2);
  EXPECT_EQ(MeshShape::for_procs(4).rows, 2);
  EXPECT_EQ(MeshShape::for_procs(4).cols, 2);
  EXPECT_EQ(MeshShape::for_procs(6).rows, 2);
  EXPECT_EQ(MeshShape::for_procs(6).cols, 3);
  EXPECT_EQ(MeshShape::for_procs(9).rows, 3);
  EXPECT_EQ(MeshShape::for_procs(16).rows, 4);
  EXPECT_EQ(MeshShape::for_procs(7).rows, 1);  // prime: 1 x 7
  EXPECT_EQ(MeshShape::for_procs(7).cols, 7);
}

TEST(Partition, RegionsTileTheArray) {
  Partition part(10, 341, MeshShape::for_procs(16));
  std::int64_t total_area = 0;
  for (ProcId p = 0; p < part.num_regions(); ++p) {
    total_area += part.region(p).area();
  }
  EXPECT_EQ(total_area, 10 * 341);
}

TEST(Partition, OwnerMatchesRegion) {
  Partition part(10, 341, MeshShape::for_procs(16));
  for (std::int32_t c = 0; c < 10; ++c) {
    for (std::int32_t x = 0; x < 341; ++x) {
      GridPoint p{c, x};
      ProcId owner = part.owner(p);
      EXPECT_TRUE(part.region(owner).contains(p))
          << "cell (" << c << "," << x << ")";
    }
  }
}

/// owner() is arithmetic on the band split (the first total % bands bands
/// hold one extra cell); on uneven splits it must still name the region
/// that contains each cell.
TEST(Partition, OwnerMatchesContainingRegionOnUnevenSplits) {
  const struct {
    std::int32_t channels, grids;
    MeshShape mesh;
  } shapes[] = {
      {7, 341, MeshShape{3, 4}},   // 7 = 3+2+2 rows, 341 = 86+85+85+85 cols
      {7, 341, MeshShape{1, 1}},
      {5, 9, MeshShape{5, 9}},     // one cell per region
      {11, 23, MeshShape{4, 6}},
      {10, 341, MeshShape{2, 8}},
  };
  for (const auto& shape : shapes) {
    Partition part(shape.channels, shape.grids, shape.mesh);
    for (std::int32_t c = 0; c < shape.channels; ++c) {
      for (std::int32_t x = 0; x < shape.grids; ++x) {
        const GridPoint p{c, x};
        ProcId containing = -1;
        for (ProcId r = 0; r < part.num_regions(); ++r) {
          if (part.region(r).contains(p)) {
            ASSERT_EQ(containing, -1) << "regions overlap at " << c << "," << x;
            containing = r;
          }
        }
        ASSERT_EQ(part.owner(p), containing)
            << shape.channels << "x" << shape.grids << " cell " << c << "," << x;
      }
    }
  }
}

TEST(Partition, MeshCoordinatesRoundTrip) {
  Partition part(12, 386, MeshShape{3, 4});
  for (ProcId p = 0; p < 12; ++p) {
    EXPECT_EQ(part.proc_at(part.mesh_row(p), part.mesh_col(p)), p);
  }
}

TEST(Partition, HopDistanceIsMeshManhattan) {
  Partition part(8, 64, MeshShape{2, 4});
  EXPECT_EQ(part.hop_distance(0, 0), 0);
  EXPECT_EQ(part.hop_distance(0, 3), 3);   // same row, 3 columns apart
  EXPECT_EQ(part.hop_distance(0, 4), 1);   // adjacent rows
  EXPECT_EQ(part.hop_distance(0, 7), 4);   // corner to corner
  EXPECT_EQ(part.hop_distance(7, 0), 4);   // symmetric
}

TEST(Partition, NeighborsAreAdjacent) {
  Partition part(8, 64, MeshShape{4, 4});
  for (ProcId p = 0; p < 16; ++p) {
    auto neighbors = part.neighbors(p);
    std::int32_t expected = 4;
    if (part.mesh_row(p) == 0 || part.mesh_row(p) == 3) --expected;
    if (part.mesh_col(p) == 0 || part.mesh_col(p) == 3) --expected;
    EXPECT_EQ(static_cast<std::int32_t>(neighbors.size()), expected);
    for (ProcId n : neighbors) {
      EXPECT_EQ(part.hop_distance(p, n), 1);
    }
  }
}

TEST(Partition, RegionsOverlappingMatchesBruteForce) {
  Partition part(10, 100, MeshShape{2, 5});
  const Rect queries[] = {Rect::of(0, 9, 0, 99), Rect::of(3, 6, 15, 65),
                          Rect::of(0, 0, 0, 0), Rect::of(5, 5, 50, 50),
                          Rect::empty()};
  for (const Rect& q : queries) {
    std::set<ProcId> brute;
    for (ProcId p = 0; p < part.num_regions(); ++p) {
      if (part.region(p).intersects(q)) brute.insert(p);
    }
    auto fast = part.regions_overlapping(q);
    EXPECT_EQ(std::set<ProcId>(fast.begin(), fast.end()), brute);
  }
}

/// Property sweep: partitions of many shapes tile exactly and agree with
/// owner() everywhere.
class PartitionProperty : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(PartitionProperty, TilesAndOwnsConsistently) {
  const std::int32_t procs = GetParam();
  MeshShape mesh = MeshShape::for_procs(procs);
  const std::int32_t channels = std::max(mesh.rows, 7);
  const std::int32_t grids = std::max(mesh.cols * 3, 31);
  Partition part(channels, grids, mesh);
  std::int64_t area = 0;
  for (ProcId p = 0; p < part.num_regions(); ++p) {
    const Rect& r = part.region(p);
    EXPECT_FALSE(r.is_empty());
    area += r.area();
    // Every corner cell maps back to p.
    EXPECT_EQ(part.owner({r.channel_lo, r.x_lo}), p);
    EXPECT_EQ(part.owner({r.channel_hi, r.x_hi}), p);
  }
  EXPECT_EQ(area, static_cast<std::int64_t>(channels) * grids);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PartitionProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 9, 12, 16, 25));

}  // namespace
}  // namespace locus
