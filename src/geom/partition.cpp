#include "geom/partition.hpp"

#include <cmath>

#include "support/assert.hpp"

namespace locus {

MeshShape MeshShape::for_procs(std::int32_t procs) {
  LOCUS_ASSERT(procs >= 1);
  std::int32_t best_rows = 1;
  for (std::int32_t r = 1; r * r <= procs; ++r) {
    if (procs % r == 0) best_rows = r;
  }
  return MeshShape{best_rows, procs / best_rows};
}

namespace {

// Splits `total` cells into `bands` contiguous bands of nearly equal size;
// returns band start offsets (size bands+1). Earlier bands take the remainder.
std::vector<std::int32_t> make_bands(std::int32_t total, std::int32_t bands) {
  LOCUS_ASSERT(bands >= 1);
  LOCUS_ASSERT_MSG(total >= bands, "more partition bands than cells");
  std::vector<std::int32_t> starts(static_cast<std::size_t>(bands) + 1);
  std::int32_t base = total / bands;
  std::int32_t extra = total % bands;
  std::int32_t offset = 0;
  for (std::int32_t b = 0; b < bands; ++b) {
    starts[static_cast<std::size_t>(b)] = offset;
    offset += base + (b < extra ? 1 : 0);
  }
  starts[static_cast<std::size_t>(bands)] = total;
  return starts;
}

}  // namespace

Partition::Partition(std::int32_t channels, std::int32_t grids, MeshShape mesh)
    : channels_(channels), grids_(grids), mesh_(mesh) {
  // Band r spans [row_start[r], row_start[r + 1]).
  const std::vector<std::int32_t> row_start = make_bands(channels, mesh.rows);
  const std::vector<std::int32_t> col_start = make_bands(grids, mesh.cols);
  row_split_ = BandSplit{channels / mesh.rows, channels % mesh.rows};
  col_split_ = BandSplit{grids / mesh.cols, grids % mesh.cols};
  regions_.reserve(static_cast<std::size_t>(mesh.procs()));
  for (std::int32_t r = 0; r < mesh.rows; ++r) {
    for (std::int32_t c = 0; c < mesh.cols; ++c) {
      regions_.push_back(Rect::of(row_start[static_cast<std::size_t>(r)],
                                  row_start[static_cast<std::size_t>(r) + 1] - 1,
                                  col_start[static_cast<std::size_t>(c)],
                                  col_start[static_cast<std::size_t>(c) + 1] - 1));
    }
  }
}

const Rect& Partition::region(ProcId proc) const {
  LOCUS_ASSERT(proc >= 0 && proc < num_regions());
  return regions_[static_cast<std::size_t>(proc)];
}

std::int32_t Partition::hop_distance(ProcId a, ProcId b) const {
  return std::abs(mesh_row(a) - mesh_row(b)) + std::abs(mesh_col(a) - mesh_col(b));
}

std::vector<ProcId> Partition::neighbors(ProcId proc) const {
  std::vector<ProcId> out;
  std::int32_t row = mesh_row(proc);
  std::int32_t col = mesh_col(proc);
  if (row > 0) out.push_back(proc_at(row - 1, col));
  if (row + 1 < mesh_.rows) out.push_back(proc_at(row + 1, col));
  if (col > 0) out.push_back(proc_at(row, col - 1));
  if (col + 1 < mesh_.cols) out.push_back(proc_at(row, col + 1));
  return out;
}

std::vector<ProcId> Partition::regions_overlapping(const Rect& r) const {
  std::vector<ProcId> out;
  if (r.is_empty()) return out;
  Rect clipped = Rect::intersection(
      r, Rect::of(0, channels_ - 1, 0, grids_ - 1));
  if (clipped.is_empty()) return out;
  std::int32_t row_lo = row_split_.band_of(clipped.channel_lo);
  std::int32_t row_hi = row_split_.band_of(clipped.channel_hi);
  std::int32_t col_lo = col_split_.band_of(clipped.x_lo);
  std::int32_t col_hi = col_split_.band_of(clipped.x_hi);
  for (std::int32_t row = row_lo; row <= row_hi; ++row) {
    for (std::int32_t col = col_lo; col <= col_hi; ++col) {
      out.push_back(proc_at(row, col));
    }
  }
  return out;
}

}  // namespace locus
