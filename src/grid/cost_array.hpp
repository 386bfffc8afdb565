// The cost array — LocusRoute's central data structure.
//
// One int32 cell per (channel, routing grid) position counting the wires
// currently routed through that cell (paper §3, Figure 1). Routing reads it
// to price candidate paths; committing a route increments the path's cells;
// ripping up decrements them.
//
// In the message passing implementation each processor holds a *view* of the
// whole array that may drift from the truth; drifted views can transiently
// hold negative values (an absolute region update can land after a local
// rip-up). `read()` therefore clamps at zero for routing decisions while
// `at()` exposes raw storage for bookkeeping and tests.
//
// Storage is one dense row-major allocation covering the whole grid. It backs
// the shared memory router's single shared array, the sequential router, the
// truth oracle and every final result; the message passing processors' views
// are sparse TiledCostArrays (grid/tiled_cost_array.hpp) instead.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "route/cost_view.hpp"

namespace locus {

class CostArray final : public CostView {
 public:
  CostArray(std::int32_t channels, std::int32_t grids, std::int32_t initial = 0);

  std::int32_t channels() const { return channels_; }
  std::int32_t grids() const { return grids_; }
  std::int64_t size() const {
    return static_cast<std::int64_t>(channels_) * grids_;
  }
  Rect bounds() const { return Rect::of(0, channels_ - 1, 0, grids_ - 1); }

  /// Flat row-major index; this is also the "address" unit used when the
  /// shared memory tracer turns accesses into byte addresses.
  std::int64_t index(GridPoint p) const {
    return static_cast<std::int64_t>(p.channel) * grids_ + p.x;
  }

  /// Raw cell value, unclamped.
  std::int32_t at(GridPoint p) const { return cells_[checked_index(p)]; }
  void set(GridPoint p, std::int32_t value) { cells_[checked_index(p)] = value; }

  // CostView: routing-decision read (clamped at zero) and read-modify-write.
  std::int32_t read(GridPoint p) override {
    std::int32_t v = cells_[checked_index(p)];
    return v < 0 ? 0 : v;
  }
  void add(GridPoint p, std::int32_t delta) override {
    cells_[checked_index(p)] += delta;
  }

  /// Devirtualized span read: one bounds check and a SIMD clamp loop over
  /// contiguous storage (the row-major layout makes a row a single slice).
  void read_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                std::span<std::int32_t> span_out) override;
  /// Whole-window read: one bounds check, then the SIMD clamp row by row.
  void read_rows(std::int32_t c_lo, std::int32_t c_hi, std::int32_t x_lo,
                 std::int32_t x_hi, std::span<std::int32_t> span_out) override;
  bool supports_bulk_read() const override { return true; }

  /// Copies the raw values inside `box` (row-major) into `out`.
  void read_rect(const Rect& box, std::vector<std::int32_t>& out) const;
  /// Overwrites the cells inside `box` with `values` (row-major, size must
  /// equal box.area()).
  void write_rect(const Rect& box, std::span<const std::int32_t> values);
  /// Adds `values` (row-major) into the cells inside `box`.
  void add_rect(const Rect& box, std::span<const std::int32_t> values);

  void fill(std::int32_t value);

  /// Maximum raw value in one channel row — the track count of that channel.
  std::int32_t max_in_channel(std::int32_t channel) const;

  std::span<const std::int32_t> cells() const { return cells_; }

  friend bool operator==(const CostArray& a, const CostArray& b) {
    return a.channels_ == b.channels_ && a.grids_ == b.grids_ && a.cells_ == b.cells_;
  }

 private:
  std::size_t checked_index(GridPoint p) const;

  std::int32_t channels_;
  std::int32_t grids_;
  std::vector<std::int32_t> cells_;
};

}  // namespace locus
