#include "grid/cost_array.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/simd.hpp"

namespace locus {

CostArray::CostArray(std::int32_t channels, std::int32_t grids, std::int32_t initial)
    : channels_(channels), grids_(grids),
      cells_(static_cast<std::size_t>(channels) * static_cast<std::size_t>(grids),
             initial) {
  LOCUS_ASSERT(channels >= 1 && grids >= 1);
}

std::size_t CostArray::checked_index(GridPoint p) const {
  LOCUS_ASSERT_MSG(p.channel >= 0 && p.channel < channels_, "channel out of range");
  LOCUS_ASSERT_MSG(p.x >= 0 && p.x < grids_, "grid out of range");
  return static_cast<std::size_t>(index(p));
}

void CostArray::read_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                         std::span<std::int32_t> span_out) {
  LOCUS_ASSERT_MSG(channel >= 0 && channel < channels_, "channel out of range");
  LOCUS_ASSERT_MSG(x_lo >= 0 && x_lo <= x_hi && x_hi < grids_, "span out of range");
  const auto count = static_cast<std::size_t>(x_hi - x_lo + 1);
  LOCUS_ASSERT(span_out.size() >= count);
  const std::int32_t* row = cells_.data() +
                            static_cast<std::size_t>(channel) * grids_ + x_lo;
  simd::clamp_nonneg(row, span_out.data(), count);
}

void CostArray::read_rows(std::int32_t c_lo, std::int32_t c_hi, std::int32_t x_lo,
                          std::int32_t x_hi, std::span<std::int32_t> span_out) {
  LOCUS_ASSERT_MSG(c_lo >= 0 && c_lo <= c_hi && c_hi < channels_,
                   "channel range out of range");
  LOCUS_ASSERT_MSG(x_lo >= 0 && x_lo <= x_hi && x_hi < grids_, "span out of range");
  const auto width = static_cast<std::size_t>(x_hi - x_lo + 1);
  LOCUS_ASSERT(span_out.size() >= width * static_cast<std::size_t>(c_hi - c_lo + 1));
  std::int32_t* out = span_out.data();
  for (std::int32_t c = c_lo; c <= c_hi; ++c, out += width) {
    simd::clamp_nonneg(cells_.data() + static_cast<std::size_t>(c) * grids_ + x_lo,
                       out, width);
  }
}

void CostArray::read_rect(const Rect& box, std::vector<std::int32_t>& out) const {
  LOCUS_ASSERT(bounds().contains(box));
  out.clear();
  out.reserve(static_cast<std::size_t>(box.area()));
  for (std::int32_t c = box.channel_lo; c <= box.channel_hi; ++c) {
    const std::int32_t* row = cells_.data() + static_cast<std::size_t>(c) * grids_;
    out.insert(out.end(), row + box.x_lo, row + box.x_hi + 1);
  }
}

void CostArray::write_rect(const Rect& box, std::span<const std::int32_t> values) {
  LOCUS_ASSERT(bounds().contains(box));
  LOCUS_ASSERT(static_cast<std::int64_t>(values.size()) == box.area());
  const std::int32_t* src = values.data();
  for (std::int32_t c = box.channel_lo; c <= box.channel_hi; ++c) {
    std::int32_t* row = cells_.data() + static_cast<std::size_t>(c) * grids_;
    std::copy(src, src + box.width(), row + box.x_lo);
    src += box.width();
  }
}

void CostArray::add_rect(const Rect& box, std::span<const std::int32_t> values) {
  LOCUS_ASSERT(bounds().contains(box));
  LOCUS_ASSERT(static_cast<std::int64_t>(values.size()) == box.area());
  const std::int32_t* src = values.data();
  for (std::int32_t c = box.channel_lo; c <= box.channel_hi; ++c) {
    std::int32_t* row = cells_.data() + static_cast<std::size_t>(c) * grids_;
    for (std::int32_t x = box.x_lo; x <= box.x_hi; ++x) {
      row[x] += *src++;
    }
  }
}

void CostArray::fill(std::int32_t value) {
  std::fill(cells_.begin(), cells_.end(), value);
}

std::int32_t CostArray::max_in_channel(std::int32_t channel) const {
  LOCUS_ASSERT(channel >= 0 && channel < channels_);
  const std::int32_t* row = cells_.data() + static_cast<std::size_t>(channel) * grids_;
  return *std::max_element(row, row + grids_);
}

}  // namespace locus
