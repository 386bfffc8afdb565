// The delta array — changes made to the cost array since the last update.
//
// Paper §4.1/§4.3: each message passing processor keeps, alongside its cost
// array view, a delta array of the same dimensions recording the changes it
// has made but not yet propagated. Update packets carry the bounding box of
// the nonzero deltas inside one owned region, or one tight box per tile of
// them (the region-batched format).
//
// This class also implements the *cancellation* effect the paper credits for
// much of the traffic gap (§5.2): a rip-up decrement followed by a re-route
// increment of the same cell returns the delta to zero, and fully-cancelled
// regions send no update at all. A per-region nonzero counter detects that
// exactly; the per-region bounding box is conservative between extractions
// and tightened by the scan that builds a packet (paper §4.3.1: "the sending
// processor scans the delta array for changes").
//
// Storage is a sparse TileGrid: a tile materializes where a nonzero delta
// first lands and stays resident for the array's lifetime (an absent tile
// holds only zeros). Writes and scans go by row span: add_row() does one
// owner lookup per region band it crosses, and the packet scan walks row
// chunks and skips absent tiles. last_scan_cells() still counts every cell
// of the scanned box, so it — and with it the simulated time model —
// depends only on the deltas themselves, not on which tiles are resident.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/partition.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "grid/tile_grid.hpp"

namespace locus {

/// One rectangle of cell values: a block of extracted deltas, and the unit
/// every update packet carries (msg/packets.hpp).
struct UpdateBlock {
  Rect bbox;
  std::vector<std::int32_t> values;  ///< row-major over bbox
};

class DeltaArray {
 public:
  /// Tiles of shape `dims` materialize where deltas land; none is released.
  DeltaArray(const Partition& partition, TileDims dims);

  /// Records a change of `delta` at cell `p`.
  void add(GridPoint p, std::int32_t delta) { add_row(p.channel, p.x, p.x, delta); }

  /// Records a change of `delta` at every cell of row `channel`, columns
  /// [x_lo, x_hi] inclusive. Counts and dirty boxes end exactly as the
  /// per-cell add() loop, left to right, would leave them.
  void add_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
               std::int32_t delta);

  /// Records `values[i]` at cell (channel, x_lo + i), skipping zeros (a
  /// received update row). Same bookkeeping as add_row().
  void add_row(std::int32_t channel, std::int32_t x_lo,
               std::span<const std::int32_t> values);

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

  /// Simulated work performed by the last extract_region() scan, in cells
  /// visited (drives the packet-assembly time model).
  std::int64_t last_scan_cells() const { return last_scan_cells_; }

  /// Scans `region` for changes and, if it is dirty, returns one tight
  /// rectangle of changes per `dims`-shaped tile (row-major tile order) and
  /// *clears* those deltas (they are now considered propagated). Returns no
  /// blocks if the region is clean — the caller then suppresses the update
  /// (paper §4.3.2). With `dims` covering the whole grid (whole_grid()) the
  /// single block is the tight bounding box of every change; finer `dims`
  /// give the region-batched packet format. The scan covers the same box
  /// whatever `dims` is (same last_scan_cells), and the blocks together
  /// cover exactly the nonzero deltas, so a receiver applying every block
  /// reaches the same state; only packet byte counts differ. `dims` need
  /// not match the storage tiles.
  std::vector<UpdateBlock> extract_region(ProcId region, TileDims dims);

  /// One tile spanning the whole grid: extract_region() then returns a
  /// single bounding box.
  TileDims whole_grid() const {
    return TileDims{partition_->channels(), partition_->grids()};
  }

  const Partition& partition() const { return *partition_; }

  /// Cells with delta storage allocated (whole tiles).
  std::int64_t resident_cells() const {
    return tiles_.tiles_resident() * tiles_.tile_cells();
  }

 private:
  template <typename ValueAt>
  void add_run(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
               ValueAt value_at);
  /// Copies out the deltas inside `box` (row-major) and zeroes them.
  UpdateBlock take_rect(const Rect& box);

  const Partition* partition_;
  TileGrid tiles_;
  std::vector<Rect> dirty_bbox_;             // per region, conservative
  std::vector<std::int64_t> nonzero_count_;  // per region, exact
  std::int64_t last_scan_cells_ = 0;
  std::vector<Rect> block_table_;  // extract_region scratch: one tight rect per tile
};

}  // namespace locus
