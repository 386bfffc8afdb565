// Sparse, lazily allocated tile storage for grid-shaped int32 state.
//
// The monolithic cost array allocates channels x grids cells up front; at
// 100k-wire scale that is tens of megabytes *per processor view*, and at 256
// virtual processors the views dominate memory while each processor only
// ever touches its own region, its mesh neighbors' regions, and the bounding
// boxes of its assigned wires. TileGrid keeps one power-of-two tile
// (tile_channels x tile_cols cells) per allocation, created on first write;
// an absent tile reads as zero — exactly the initial value of every cell —
// so sparse content is always equal to what the dense array would hold.
//
// Tile dimensions are powers of two so the (channel, x) -> (tile, offset)
// split is two shifts and two masks; rows within a tile are contiguous, so
// bulk row reads run one clamp loop per resident chunk. Edge tiles are
// allocated at full tile size (the slack cells are simply never addressed),
// keeping the index math branch-free.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "support/assert.hpp"

namespace locus {

/// Tile shape knobs shared by TiledCostArray and DeltaArray. Defaults:
/// 2 channels x 128 columns = 1 KiB per tile. Committed routes are thin
/// strips and every node routes a few chip-spanning wires, so coarser tiles
/// would round each view up to nearly the whole grid; 128-cell row chunks
/// keep bulk row reads to a few chunks each.
struct TileDims {
  std::int32_t channels = 2;
  std::int32_t cols = 128;
};

class TileGrid {
 public:
  TileGrid(std::int32_t channels, std::int32_t grids, TileDims dims);

  std::int32_t channels() const { return channels_; }
  std::int32_t grids() const { return grids_; }
  std::int32_t tile_channels() const { return 1 << ch_shift_; }
  std::int32_t tile_cols() const { return 1 << col_shift_; }
  std::int64_t tile_cells() const {
    return static_cast<std::int64_t>(tile_channels()) * tile_cols();
  }
  std::int64_t tiles_resident() const { return resident_; }
  std::int64_t tiles_total() const {
    return static_cast<std::int64_t>(tiles_y_) * tiles_x_;
  }

  /// Raw value at `p`; 0 when its tile was never written.
  std::int32_t get(GridPoint p) const {
    const std::int32_t* tile = tiles_[tile_index(p)].get();
    return tile == nullptr ? 0 : tile[cell_offset(p)];
  }

  /// Mutable cell reference; allocates (zero-filled) the tile on demand.
  std::int32_t& slot(GridPoint p) {
    std::unique_ptr<std::int32_t[]>& tile = tiles_[tile_index(p)];
    if (tile == nullptr) allocate(tile);
    return tile[cell_offset(p)];
  }

  /// Read-only pointer to the contiguous run starting at (channel, x) inside
  /// one tile row, or nullptr when the tile is absent. `*run` is set either
  /// way: the number of cells from x to the tile (or grid) boundary.
  const std::int32_t* row_chunk(std::int32_t channel, std::int32_t x,
                                std::int32_t* run) const {
    *run = chunk_run(x);
    const std::int32_t* tile = tiles_[tile_index(GridPoint{channel, x})].get();
    return tile == nullptr ? nullptr : tile + cell_offset(GridPoint{channel, x});
  }

  /// Writable pointer to the same run, or nullptr when the tile is absent;
  /// allocates nothing.
  std::int32_t* resident_row_chunk(std::int32_t channel, std::int32_t x,
                                   std::int32_t* run) {
    *run = chunk_run(x);
    std::int32_t* tile = tiles_[tile_index(GridPoint{channel, x})].get();
    return tile == nullptr ? nullptr : tile + cell_offset(GridPoint{channel, x});
  }

  /// Mutable variant; allocates the tile on demand.
  std::int32_t* mutable_row_chunk(std::int32_t channel, std::int32_t x,
                                  std::int32_t* run) {
    *run = chunk_run(x);
    std::unique_ptr<std::int32_t[]>& tile = tiles_[tile_index(GridPoint{channel, x})];
    if (tile == nullptr) allocate(tile);
    return tile.get() + cell_offset(GridPoint{channel, x});
  }

  /// Materializes every tile overlapping `box` (used to pin a node's own
  /// region resident up front, keeping own-region reads dense from wire 0).
  void ensure_rect(const Rect& box);

  /// Drops every tile (all cells read as zero again).
  void clear();

  /// True when any tile overlapping `box` is resident. O(tiles in box).
  bool any_resident_in(const Rect& box) const {
    if (box.is_empty()) return false;
    LOCUS_ASSERT(box.channel_lo >= 0 && box.channel_hi < channels_);
    LOCUS_ASSERT(box.x_lo >= 0 && box.x_hi < grids_);
    const std::int32_t ty_lo = box.channel_lo >> ch_shift_;
    const std::int32_t ty_hi = box.channel_hi >> ch_shift_;
    const std::int32_t tx_lo = box.x_lo >> col_shift_;
    const std::int32_t tx_hi = box.x_hi >> col_shift_;
    for (std::int32_t ty = ty_lo; ty <= ty_hi; ++ty) {
      for (std::int32_t tx = tx_lo; tx <= tx_hi; ++tx) {
        if (tiles_[static_cast<std::size_t>(ty) * tiles_x_ + tx] != nullptr)
          return true;
      }
    }
    return false;
  }

  /// Calls fn(tile_bounds, cells) for every resident tile, row-major tile
  /// order. `tile_bounds` is clipped to the grid; `cells` points at the
  /// tile's storage (full tile_cols stride).
  template <typename Fn>
  void for_each_resident_tile(Fn&& fn) const {
    for (std::int32_t ty = 0; ty < tiles_y_; ++ty) {
      for (std::int32_t tx = 0; tx < tiles_x_; ++tx) {
        const std::int32_t* tile =
            tiles_[static_cast<std::size_t>(ty) * tiles_x_ + tx].get();
        if (tile == nullptr) continue;
        const Rect clipped = Rect::of(
            ty << ch_shift_,
            std::min((ty + 1) << ch_shift_, channels_) - 1, tx << col_shift_,
            std::min((tx + 1) << col_shift_, grids_) - 1);
        fn(clipped, tile);
      }
    }
  }

 private:
  std::size_t tile_index(GridPoint p) const {
    LOCUS_ASSERT(p.channel >= 0 && p.channel < channels_);
    LOCUS_ASSERT(p.x >= 0 && p.x < grids_);
    return static_cast<std::size_t>(p.channel >> ch_shift_) * tiles_x_ +
           static_cast<std::size_t>(p.x >> col_shift_);
  }
  std::size_t cell_offset(GridPoint p) const {
    return (static_cast<std::size_t>(p.channel) & ch_mask_) << col_shift_ |
           (static_cast<std::size_t>(p.x) & col_mask_);
  }
  std::int32_t chunk_run(std::int32_t x) const {
    const std::int32_t to_tile_edge = tile_cols() - (x & static_cast<std::int32_t>(col_mask_));
    return std::min(to_tile_edge, grids_ - x);
  }
  void allocate(std::unique_ptr<std::int32_t[]>& tile);

  std::int32_t channels_;
  std::int32_t grids_;
  std::int32_t ch_shift_;
  std::int32_t col_shift_;
  std::size_t ch_mask_;
  std::size_t col_mask_;
  std::int32_t tiles_y_;
  std::int32_t tiles_x_;
  std::vector<std::unique_ptr<std::int32_t[]>> tiles_;
  std::int64_t resident_ = 0;
};

}  // namespace locus
