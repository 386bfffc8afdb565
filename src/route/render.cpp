#include "route/render.hpp"

#include <span>
#include <sstream>

#include "support/assert.hpp"

namespace locus {

namespace {

char cell_char(std::int32_t value) {
  if (value <= 0) return '.';
  if (value < 10) return static_cast<char>('0' + value);
  if (value < 36) return static_cast<char>('a' + (value - 10));
  return '#';
}

std::string render_window(const CostArray& cost, std::int32_t x_lo,
                          std::int32_t x_hi, std::span<const RowRun> highlight) {
  LOCUS_ASSERT(x_lo >= 0 && x_hi < cost.grids() && x_lo <= x_hi);
  std::ostringstream os;
  for (std::int32_t c = 0; c < cost.channels(); ++c) {
    for (std::int32_t x = x_lo; x <= x_hi; ++x) {
      const GridPoint p{c, x};
      if (covers(highlight, p)) {
        os << '*';
      } else {
        os << cell_char(cost.at(p));
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace

std::string render_cost_array(const CostArray& cost) {
  return render_window(cost, 0, cost.grids() - 1, {});
}

std::string render_cost_array(const CostArray& cost, std::int32_t x_lo,
                              std::int32_t x_hi) {
  return render_window(cost, x_lo, x_hi, {});
}

std::string render_route(const CostArray& cost, const WireRoute& route) {
  // WireRoute::runs is sorted and disjoint (collect_row_runs), which the
  // binary search in covers() needs.
  return render_window(cost, 0, cost.grids() - 1, route.runs);
}

}  // namespace locus
