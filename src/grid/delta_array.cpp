#include "grid/delta_array.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "support/assert.hpp"

namespace locus {

DeltaArray::DeltaArray(const Partition& partition, TileDims dims)
    : partition_(&partition),
      tiles_(partition.channels(), partition.grids(), dims),
      dirty_bbox_(static_cast<std::size_t>(partition.num_regions())),
      nonzero_count_(static_cast<std::size_t>(partition.num_regions()), 0) {}

void DeltaArray::add(GridPoint p, std::int32_t delta) {
  if (delta == 0) return;
  std::int32_t& cell = tiles_.slot(p);
  const bool was_zero = (cell == 0);
  cell += delta;
  const ProcId region = partition_->owner(p);
  auto r = static_cast<std::size_t>(region);
  if (was_zero && cell != 0) {
    ++nonzero_count_[r];
    dirty_bbox_[r].expand(p);
  } else if (!was_zero && cell == 0) {
    --nonzero_count_[r];
    if (nonzero_count_[r] == 0) dirty_bbox_[r] = Rect::empty();
    // Bounding box is left conservative when some cells remain nonzero;
    // extract_region() tightens it.
  }
}

void DeltaArray::accumulate(const Rect& box, std::span<std::int64_t> out) const {
  LOCUS_ASSERT(static_cast<std::int64_t>(out.size()) == box.area());
  if (box.is_empty()) return;
  LOCUS_ASSERT(box.channel_lo >= 0 && box.channel_hi < partition_->channels());
  LOCUS_ASSERT(box.x_lo >= 0 && box.x_hi < partition_->grids());
  std::int64_t* dst = out.data();
  for (std::int32_t c = box.channel_lo; c <= box.channel_hi; ++c) {
    for (std::int32_t x = box.x_lo; x <= box.x_hi;) {
      std::int32_t run = 0;
      const std::int32_t* chunk = tiles_.row_chunk(c, x, &run);
      run = std::min(run, box.x_hi - x + 1);
      if (chunk != nullptr) {
        for (std::int32_t i = 0; i < run; ++i) dst[i] += chunk[i];
      }
      dst += run;
      x += run;
    }
  }
}

bool DeltaArray::region_dirty(ProcId region) const {
  return nonzero_count_[static_cast<std::size_t>(region)] > 0;
}

const Rect& DeltaArray::dirty_bbox(ProcId region) const {
  return dirty_bbox_[static_cast<std::size_t>(region)];
}

std::int64_t DeltaArray::nonzero_count(ProcId region) const {
  return nonzero_count_[static_cast<std::size_t>(region)];
}

void DeltaArray::clear_region_bookkeeping(ProcId region) {
  auto r = static_cast<std::size_t>(region);
  nonzero_count_[r] = 0;
  dirty_bbox_[r] = Rect::empty();
}

std::optional<DeltaArray::Extract> DeltaArray::extract_region(ProcId region) {
  auto r = static_cast<std::size_t>(region);
  last_scan_cells_ = 0;
  if (nonzero_count_[r] == 0) return std::nullopt;

  // Scan the conservative box to find the tight bounding box of changes.
  const Rect scan = dirty_bbox_[r];
  Rect tight;
  for (std::int32_t c = scan.channel_lo; c <= scan.channel_hi; ++c) {
    for (std::int32_t x = scan.x_lo; x <= scan.x_hi; ++x) {
      ++last_scan_cells_;
      if (tiles_.get(GridPoint{c, x}) != 0) {
        tight.expand(GridPoint{c, x});
      }
    }
  }
  LOCUS_ASSERT_MSG(!tight.is_empty(), "nonzero count said dirty but scan found nothing");

  Extract out;
  out.bbox = tight;
  out.values.reserve(static_cast<std::size_t>(tight.area()));
  for (std::int32_t c = tight.channel_lo; c <= tight.channel_hi; ++c) {
    for (std::int32_t x = tight.x_lo; x <= tight.x_hi; ++x) {
      std::int32_t& cell = tiles_.slot(GridPoint{c, x});
      out.values.push_back(cell);
      cell = 0;
    }
  }
  clear_region_bookkeeping(region);
  return out;
}

std::optional<std::vector<DeltaArray::Extract>> DeltaArray::extract_region_blocks(
    ProcId region, TileDims dims) {
  auto r = static_cast<std::size_t>(region);
  last_scan_cells_ = 0;
  if (nonzero_count_[r] == 0) return std::nullopt;
  LOCUS_ASSERT(dims.channels >= 1 && dims.cols >= 1);

  // One scan of the conservative box (identical cell visits — and therefore
  // identical simulated scan cost — to extract_region), bucketing each
  // nonzero cell's tight rectangle by the tile it falls in. The ordered map
  // key (tile row, tile col) makes block order row-major and deterministic.
  const Rect scan = dirty_bbox_[r];
  std::map<std::pair<std::int32_t, std::int32_t>, Rect> tight_by_tile;
  for (std::int32_t c = scan.channel_lo; c <= scan.channel_hi; ++c) {
    for (std::int32_t x = scan.x_lo; x <= scan.x_hi; ++x) {
      ++last_scan_cells_;
      if (tiles_.get(GridPoint{c, x}) != 0) {
        tight_by_tile[{c / dims.channels, x / dims.cols}].expand(GridPoint{c, x});
      }
    }
  }
  LOCUS_ASSERT_MSG(!tight_by_tile.empty(),
                   "nonzero count said dirty but scan found nothing");

  std::vector<Extract> blocks;
  blocks.reserve(tight_by_tile.size());
  for (const auto& [tile, tight] : tight_by_tile) {
    Extract out;
    out.bbox = tight;
    out.values.reserve(static_cast<std::size_t>(tight.area()));
    for (std::int32_t c = tight.channel_lo; c <= tight.channel_hi; ++c) {
      for (std::int32_t x = tight.x_lo; x <= tight.x_hi; ++x) {
        std::int32_t& cell = tiles_.slot(GridPoint{c, x});
        out.values.push_back(cell);
        cell = 0;
      }
    }
    blocks.push_back(std::move(out));
  }
  clear_region_bookkeeping(region);
  return blocks;
}

}  // namespace locus
