#include "grid/tiled_cost_array.hpp"

#include <algorithm>
#include <limits>

#include "support/assert.hpp"

namespace locus {

TiledCostArray::TiledCostArray(std::int32_t channels, std::int32_t grids,
                               TileDims dims)
    : tiles_(channels, grids, dims) {}

void TiledCostArray::add_row(std::int32_t channel, std::int32_t x_lo,
                             std::int32_t x_hi, std::int32_t delta) {
  LOCUS_ASSERT_MSG(channel >= 0 && channel < channels(), "channel out of range");
  LOCUS_ASSERT_MSG(x_lo >= 0 && x_lo <= x_hi && x_hi < grids(), "span out of range");
  for (std::int32_t x = x_lo; x <= x_hi;) {
    std::int32_t run = 0;
    std::int32_t* chunk = tiles_.mutable_row_chunk(channel, x, &run);
    run = std::min(run, x_hi - x + 1);
    for (std::int32_t i = 0; i < run; ++i) chunk[i] += delta;
    x += run;
  }
}

void TiledCostArray::read_row(std::int32_t channel, std::int32_t x_lo,
                              std::int32_t x_hi, std::span<std::int32_t> span_out) {
  LOCUS_ASSERT_MSG(channel >= 0 && channel < channels(), "channel out of range");
  LOCUS_ASSERT_MSG(x_lo >= 0 && x_lo <= x_hi && x_hi < grids(), "span out of range");
  const auto count = static_cast<std::size_t>(x_hi - x_lo + 1);
  LOCUS_ASSERT(span_out.size() >= count);
  std::int32_t* out = span_out.data();
  for (std::int32_t x = x_lo; x <= x_hi;) {
    std::int32_t run = 0;
    const std::int32_t* chunk = tiles_.row_chunk(channel, x, &run);
    run = std::min(run, x_hi - x + 1);
    if (chunk != nullptr) {
      std::transform(chunk, chunk + run, out,
                     [](std::int32_t v) { return std::max(v, 0); });
    } else {
      std::fill(out, out + run, 0);  // absent tile: all zeros, clamp is identity
    }
    out += run;
    x += run;
  }
}

void TiledCostArray::read_rows(std::int32_t c_lo, std::int32_t c_hi,
                               std::int32_t x_lo, std::int32_t x_hi,
                               std::span<std::int32_t> span_out) {
  LOCUS_ASSERT_MSG(c_lo >= 0 && c_lo <= c_hi && c_hi < channels(),
                   "channel range out of range");
  LOCUS_ASSERT_MSG(x_lo >= 0 && x_lo <= x_hi && x_hi < grids(), "span out of range");
  const auto width = static_cast<std::size_t>(x_hi - x_lo + 1);
  LOCUS_ASSERT(span_out.size() >= width * static_cast<std::size_t>(c_hi - c_lo + 1));
  for (std::int32_t c = c_lo; c <= c_hi; ++c) {
    read_row(c, x_lo, x_hi,
             span_out.subspan(static_cast<std::size_t>(c - c_lo) * width, width));
  }
}

void TiledCostArray::read_rect(const Rect& box,
                               std::vector<std::int32_t>& out) const {
  LOCUS_ASSERT(bounds().contains(box));
  out.clear();
  out.reserve(static_cast<std::size_t>(box.area()));
  for (std::int32_t c = box.channel_lo; c <= box.channel_hi; ++c) {
    for (std::int32_t x = box.x_lo; x <= box.x_hi;) {
      std::int32_t run = 0;
      const std::int32_t* chunk = tiles_.row_chunk(c, x, &run);
      run = std::min(run, box.x_hi - x + 1);
      if (chunk != nullptr) {
        out.insert(out.end(), chunk, chunk + run);
      } else {
        out.insert(out.end(), static_cast<std::size_t>(run), 0);
      }
      x += run;
    }
  }
}

void TiledCostArray::write_rect(const Rect& box,
                                std::span<const std::int32_t> values) {
  LOCUS_ASSERT(bounds().contains(box));
  LOCUS_ASSERT(static_cast<std::int64_t>(values.size()) == box.area());
  const std::int32_t* src = values.data();
  for (std::int32_t c = box.channel_lo; c <= box.channel_hi; ++c) {
    for (std::int32_t x = box.x_lo; x <= box.x_hi;) {
      std::int32_t run = 0;
      std::int32_t* chunk = tiles_.mutable_row_chunk(c, x, &run);
      run = std::min(run, box.x_hi - x + 1);
      std::copy(src, src + run, chunk);
      src += run;
      x += run;
    }
  }
}

void TiledCostArray::add_rect(const Rect& box,
                              std::span<const std::int32_t> values) {
  LOCUS_ASSERT(bounds().contains(box));
  LOCUS_ASSERT(static_cast<std::int64_t>(values.size()) == box.area());
  const std::int32_t* src = values.data();
  for (std::int32_t c = box.channel_lo; c <= box.channel_hi; ++c) {
    for (std::int32_t x = box.x_lo; x <= box.x_hi;) {
      std::int32_t run = 0;
      std::int32_t* chunk = tiles_.mutable_row_chunk(c, x, &run);
      run = std::min(run, box.x_hi - x + 1);
      for (std::int32_t i = 0; i < run; ++i) chunk[i] += src[i];
      src += run;
      x += run;
    }
  }
}

void TiledCostArray::fill(std::int32_t value) {
  LOCUS_ASSERT_MSG(value == 0, "a sparse array can only be filled with zero");
  tiles_.clear();
}

std::int32_t TiledCostArray::max_in_channel(std::int32_t channel) const {
  LOCUS_ASSERT(channel >= 0 && channel < channels());
  std::int32_t best = std::numeric_limits<std::int32_t>::min();
  bool any_absent = false;
  for (std::int32_t x = 0; x < grids();) {
    std::int32_t run = 0;
    const std::int32_t* chunk = tiles_.row_chunk(channel, x, &run);
    if (chunk != nullptr) {
      best = std::max(best, *std::max_element(chunk, chunk + run));
    } else {
      any_absent = true;  // absent cells hold zero
    }
    x += run;
  }
  return any_absent ? std::max(best, 0) : best;
}

}  // namespace locus
