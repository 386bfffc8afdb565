// The delta array — changes made to the cost array since the last update.
//
// Paper §4.1/§4.3: each message passing processor keeps, alongside its cost
// array view, a delta array of the same dimensions recording the changes it
// has made but not yet propagated. Update packets carry the bounding box of
// the nonzero deltas inside one owned region.
//
// This class also implements the *cancellation* effect the paper credits for
// much of the traffic gap (§5.2): a rip-up decrement followed by a re-route
// increment of the same cell returns the delta to zero, and fully-cancelled
// regions send no update at all. A per-region nonzero counter detects that
// exactly; the per-region bounding box is conservative between extractions
// and tightened by the scan that builds a packet (paper §4.3.1: "the sending
// processor scans the delta array for changes").
//
// Storage is a sparse TileGrid: a tile materializes where a delta first lands
// and stays resident for the array's lifetime (an absent tile holds only
// zeros). The scan that builds a packet visits the same cells whatever tiles
// are resident, so last_scan_cells() — and with it the simulated time model —
// depends only on the deltas themselves.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geom/partition.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "grid/tile_grid.hpp"

namespace locus {

class DeltaArray {
 public:
  /// Tiles of shape `dims` materialize where deltas land; none is released.
  DeltaArray(const Partition& partition, TileDims dims);

  /// Records a change of `delta` at cell `p`.
  void add(GridPoint p, std::int32_t delta);

  std::int32_t at(GridPoint p) const { return tiles_.get(p); }

  /// Adds the deltas inside `box` into `out` (row-major over `box`, size
  /// must equal box.area()). Walks the row chunks and skips absent tiles,
  /// which hold only zeros. Reads every cell of `box`, whatever the dirty
  /// boxes say.
  void accumulate(const Rect& box, std::span<std::int64_t> out) const;

  /// True if the region owned by `proc` has any un-propagated change.
  bool region_dirty(ProcId region) const;

  /// Conservative bounding box of changes in `region` (empty if clean).
  const Rect& dirty_bbox(ProcId region) const;

  /// Number of currently nonzero cells in `region`.
  std::int64_t nonzero_count(ProcId region) const;

  /// Simulated work performed by the last extract_region() /
  /// extract_region_blocks() scan, in cells visited (drives the
  /// packet-assembly time model).
  std::int64_t last_scan_cells() const { return last_scan_cells_; }

  struct Extract {
    Rect bbox;                         ///< tight bounding box of changes
    std::vector<std::int32_t> values;  ///< row-major deltas within bbox
  };

  /// Scans `region` for changes; if dirty, returns the tight bounding box
  /// and its delta values and *clears* those deltas (they are now considered
  /// propagated). Returns nullopt if the region is clean — the caller then
  /// suppresses the update (paper §4.3.2).
  std::optional<Extract> extract_region(ProcId region);

  /// Like extract_region(), but splits the changes into one tight rectangle
  /// per `dims`-shaped tile (row-major tile order) instead of one bounding
  /// box over them all — the per-destination batched packet format. The scan
  /// visits exactly the cells extract_region() would (same last_scan_cells),
  /// and concatenating the blocks covers exactly the nonzero deltas, so a
  /// receiver applying every block reaches the same state as one applying
  /// the single-bbox extract; only packet byte counts differ.
  std::optional<std::vector<Extract>> extract_region_blocks(ProcId region,
                                                            TileDims dims);

  const Partition& partition() const { return *partition_; }

  /// Cells with delta storage allocated (whole tiles).
  std::int64_t resident_cells() const {
    return tiles_.tiles_resident() * tiles_.tile_cells();
  }

 private:
  void clear_region_bookkeeping(ProcId region);

  const Partition* partition_;
  TileGrid tiles_;
  std::vector<Rect> dirty_bbox_;             // per region, conservative
  std::vector<std::int64_t> nonzero_count_;  // per region, exact
  std::int64_t last_scan_cells_ = 0;
};

}  // namespace locus
