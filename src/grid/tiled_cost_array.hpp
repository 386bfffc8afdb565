// Sparse cost array: the storage of every message passing processor's view.
//
// Reads like a CostArray constructed with initial == 0 — absent tiles read
// as zero, writes materialize their tiles — but only the tiles a processor
// actually touches are allocated, so per-view memory is bounded by the
// touched working set (own region + neighbor regions + assigned-wire
// bounding boxes) instead of the whole grid. The SIMD bulk
// read paths work per resident row chunk and zero-fill across absent tiles,
// keeping bulk reads observationally equivalent to per-cell probing (the
// contract supports_bulk_read() promises, and the bulk-vs-reference test
// matrix enforces).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "grid/tile_grid.hpp"
#include "route/cost_view.hpp"

namespace locus {

class TiledCostArray final : public CostView {
 public:
  /// All cells start at zero (the sparse representation *is* the initial
  /// value); a nonzero-initial sparse array would have to materialize
  /// everything, defeating the point.
  TiledCostArray(std::int32_t channels, std::int32_t grids, TileDims dims = {});

  std::int32_t channels() const { return tiles_.channels(); }
  std::int32_t grids() const { return tiles_.grids(); }
  Rect bounds() const { return Rect::of(0, channels() - 1, 0, grids() - 1); }

  /// Raw cell value (may be negative in a drifted view).
  std::int32_t at(GridPoint p) const { return tiles_.get(p); }
  void set(GridPoint p, std::int32_t value) { tiles_.slot(p) = value; }

  std::int32_t read(GridPoint p) override {
    const std::int32_t v = tiles_.get(p);
    return v < 0 ? 0 : v;
  }
  void add(GridPoint p, std::int32_t delta) override { tiles_.slot(p) += delta; }

  void read_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                std::span<std::int32_t> span_out) override;
  void read_rows(std::int32_t c_lo, std::int32_t c_hi, std::int32_t x_lo,
                 std::int32_t x_hi, std::span<std::int32_t> span_out) override;
  bool supports_bulk_read() const override { return true; }

  /// Copies the raw values inside `box` (row-major) into `out`.
  void read_rect(const Rect& box, std::vector<std::int32_t>& out) const;
  /// Overwrites the cells inside `box` with `values` (row-major, size must
  /// equal box.area()). Applies absolute (SendLocData) updates.
  void write_rect(const Rect& box, std::span<const std::int32_t> values);
  /// Adds `values` (row-major) into the cells inside `box`. Applies delta
  /// (SendRmtData) updates.
  void add_rect(const Rect& box, std::span<const std::int32_t> values);

  /// Only fill(0) is meaningful for a sparse array: it drops every tile.
  void fill(std::int32_t value);

  /// Maximum raw value in one channel row — the track count of that channel.
  std::int32_t max_in_channel(std::int32_t channel) const;

  /// Cells with storage allocated (whole tiles, edge slack included).
  std::int64_t resident_cells() const {
    return tiles_.tiles_resident() * tiles_.tile_cells();
  }
  std::int64_t resident_bytes() const {
    return resident_cells() * static_cast<std::int64_t>(sizeof(std::int32_t));
  }

  /// True when any cell of `box` has storage allocated. Drives the
  /// resident-region summary the dynamic wire scheduler sends with
  /// kMsgWireRequest (DESIGN.md §11).
  bool any_resident_in(const Rect& box) const { return tiles_.any_resident_in(box); }

  /// Pins the tiles under `box` resident (a node's own region at startup).
  void ensure_rect(const Rect& box) { tiles_.ensure_rect(box); }

  const TileGrid& tiles() const { return tiles_; }

 private:
  TileGrid tiles_;
};

}  // namespace locus
