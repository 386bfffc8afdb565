#include "route/quality.hpp"

namespace locus {

std::vector<std::int32_t> track_profile(const CostArray& cost) {
  std::vector<std::int32_t> profile(static_cast<std::size_t>(cost.channels()));
  for (std::int32_t c = 0; c < cost.channels(); ++c) {
    profile[static_cast<std::size_t>(c)] = cost.max_in_channel(c);
  }
  return profile;
}

std::int64_t circuit_height(const CostArray& cost) {
  std::int64_t height = 0;
  for (std::int32_t c = 0; c < cost.channels(); ++c) {
    height += cost.max_in_channel(c);
  }
  return height;
}

CostArray rebuild_cost(std::int32_t channels, std::int32_t grids,
                       std::span<const WireRoute> routes) {
  CostArray cost(channels, grids);
  for (const WireRoute& r : routes) add_runs(cost, r.runs, +1);
  return cost;
}

std::int64_t circuit_height(std::int32_t channels, std::int32_t grids,
                            std::span<const WireRoute> routes) {
  return circuit_height(rebuild_cost(channels, grids, routes));
}

}  // namespace locus
