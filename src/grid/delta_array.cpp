#include "grid/delta_array.hpp"

#include <algorithm>
#include <limits>

#include "support/assert.hpp"

namespace locus {

DeltaArray::DeltaArray(const Partition& partition, TileDims dims)
    : partition_(&partition),
      tiles_(partition.channels(), partition.grids(), dims),
      dirty_bbox_(static_cast<std::size_t>(partition.num_regions())),
      nonzero_count_(static_cast<std::size_t>(partition.num_regions()), 0) {}

template <typename ValueAt>
void DeltaArray::add_run(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                         ValueAt value_at) {
  for (std::int32_t x = x_lo; x <= x_hi;) {
    // One owner lookup per region band: [x, band_hi] lies in one region.
    const ProcId region = partition_->owner(GridPoint{channel, x});
    const Rect& owned = partition_->region(region);
    LOCUS_ASSERT(owned.x_lo <= x && x <= owned.x_hi);
    const std::int32_t band_hi = std::min(x_hi, owned.x_hi);
    std::int64_t& count = nonzero_count_[static_cast<std::size_t>(region)];
    Rect& bbox = dirty_bbox_[static_cast<std::size_t>(region)];
    // Columns of the cells that turned nonzero; the box grows by them once,
    // when the band is done. Each cell is visited once, so once one turns
    // nonzero the region cannot go clean again within this band: the
    // per-cell loop's box would hold these cells too.
    std::int32_t grown_lo = std::numeric_limits<std::int32_t>::max();
    std::int32_t grown_hi = std::numeric_limits<std::int32_t>::min();
    while (x <= band_hi) {
      std::int32_t run = 0;
      std::int32_t* chunk = tiles_.resident_row_chunk(channel, x, &run);
      run = std::min(run, band_hi - x + 1);
      const std::int32_t first = x - x_lo;  // value index of chunk[0]
      if (chunk == nullptr) {
        bool any = false;
        for (std::int32_t i = 0; i < run && !any; ++i) any = value_at(first + i) != 0;
        if (!any) {  // zeros change nothing and materialize nothing
          x += run;
          continue;
        }
        std::int32_t unused = 0;
        chunk = tiles_.mutable_row_chunk(channel, x, &unused);
      }
      for (std::int32_t i = 0; i < run; ++i) {
        const std::int32_t d = value_at(first + i);
        if (d == 0) continue;
        const bool was_zero = chunk[i] == 0;
        chunk[i] += d;
        if (was_zero) {
          ++count;
          grown_lo = std::min(grown_lo, x + i);
          grown_hi = std::max(grown_hi, x + i);
        } else if (chunk[i] == 0 && --count == 0) {
          // The region went clean: drop its box. While some cells stay
          // nonzero the box stays conservative; the packet scan tightens it.
          bbox = Rect::empty();
        }
      }
      x += run;
    }
    if (grown_lo <= grown_hi) {
      bbox.expand(GridPoint{channel, grown_lo});
      bbox.expand(GridPoint{channel, grown_hi});
    }
  }
}

void DeltaArray::add_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                         std::int32_t delta) {
  LOCUS_ASSERT(x_lo <= x_hi);
  if (delta == 0) return;
  add_run(channel, x_lo, x_hi, [delta](std::int32_t) { return delta; });
}

void DeltaArray::add_row(std::int32_t channel, std::int32_t x_lo,
                         std::span<const std::int32_t> values) {
  if (values.empty()) return;
  add_run(channel, x_lo, x_lo + static_cast<std::int32_t>(values.size()) - 1,
          [values](std::int32_t i) { return values[static_cast<std::size_t>(i)]; });
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

std::vector<UpdateBlock> DeltaArray::extract_region(ProcId region, TileDims dims) {
  const auto r = static_cast<std::size_t>(region);
  last_scan_cells_ = 0;
  if (nonzero_count_[r] == 0) return {};
  LOCUS_ASSERT(dims.channels >= 1 && dims.cols >= 1);
  // The scan covers the conservative box, and its area is the simulated
  // scan cost whatever tiles are resident. It reads only resident row
  // chunks (an absent tile holds only zeros) and grows each `dims` tile's
  // tight rectangle by the first and last nonzero cell of each piece of a
  // chunk row inside that tile. The flat table is row-major over the tiles
  // the box overlaps, so blocks come out in row-major tile order.
  const Rect scan = dirty_bbox_[r];
  last_scan_cells_ = scan.area();
  const std::int32_t ty_lo = scan.channel_lo / dims.channels;
  const std::int32_t tx_lo = scan.x_lo / dims.cols;
  const auto tiles_x = static_cast<std::size_t>(scan.x_hi / dims.cols - tx_lo + 1);
  const auto tiles_y = static_cast<std::size_t>(scan.channel_hi / dims.channels - ty_lo + 1);
  block_table_.assign(tiles_y * tiles_x, Rect::empty());
  for (std::int32_t c = scan.channel_lo; c <= scan.channel_hi; ++c) {
    Rect* table_row =
        block_table_.data() + static_cast<std::size_t>(c / dims.channels - ty_lo) * tiles_x;
    for (std::int32_t x = scan.x_lo; x <= scan.x_hi;) {
      std::int32_t run = 0;
      const std::int32_t* chunk = tiles_.row_chunk(c, x, &run);
      run = std::min(run, scan.x_hi - x + 1);
      for (std::int32_t a = x; chunk != nullptr && a < x + run;) {
        const std::int32_t tx = a / dims.cols;
        const std::int32_t b = std::min(x + run, (tx + 1) * dims.cols);  // exclusive
        const std::int32_t* lo = chunk + (a - x);
        const std::int32_t* hi = chunk + (b - x);
        const std::int32_t* first =
            std::find_if(lo, hi, [](std::int32_t v) { return v != 0; });
        if (first != hi) {
          const std::int32_t* last = hi - 1;
          while (*last == 0) --last;
          Rect& tight = table_row[tx - tx_lo];
          tight.expand(GridPoint{c, x + static_cast<std::int32_t>(first - chunk)});
          tight.expand(GridPoint{c, x + static_cast<std::int32_t>(last - chunk)});
        }
        a = b;
      }
      x += run;
    }
  }

  std::vector<UpdateBlock> blocks;
  for (const Rect& tight : block_table_) {
    if (!tight.is_empty()) blocks.push_back(take_rect(tight));
  }
  LOCUS_ASSERT_MSG(!blocks.empty(), "nonzero count said dirty but scan found nothing");
  nonzero_count_[r] = 0;
  dirty_bbox_[r] = Rect::empty();
  return blocks;
}

UpdateBlock DeltaArray::take_rect(const Rect& box) {
  UpdateBlock out;
  out.bbox = box;
  out.values.reserve(static_cast<std::size_t>(box.area()));
  for (std::int32_t c = box.channel_lo; c <= box.channel_hi; ++c) {
    for (std::int32_t x = box.x_lo; x <= box.x_hi;) {
      std::int32_t run = 0;
      std::int32_t* chunk = tiles_.resident_row_chunk(c, x, &run);
      run = std::min(run, box.x_hi - x + 1);
      if (chunk != nullptr) {
        out.values.insert(out.values.end(), chunk, chunk + run);
        std::fill(chunk, chunk + run, 0);
      } else {
        out.values.insert(out.values.end(), static_cast<std::size_t>(run), 0);
      }
      x += run;
    }
  }
  return out;
}

}  // namespace locus
