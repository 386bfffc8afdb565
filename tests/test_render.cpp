// Tests for the ASCII cost-array renderer.
#include <gtest/gtest.h>

#include "grid/cost_array.hpp"
#include "route/render.hpp"
#include "route/router.hpp"

namespace locus {
namespace {

TEST(Render, EmptyArrayIsDots) {
  CostArray cost(2, 4);
  EXPECT_EQ(render_cost_array(cost), "....\n....\n");
}

TEST(Render, DigitsAndLetters) {
  CostArray cost(1, 5);
  cost.set({0, 0}, 1);
  cost.set({0, 1}, 9);
  cost.set({0, 2}, 10);
  cost.set({0, 3}, 35);
  cost.set({0, 4}, 100);
  EXPECT_EQ(render_cost_array(cost), "19az#\n");
}

TEST(Render, NegativeRendersAsEmpty) {
  CostArray cost(1, 2);
  cost.set({0, 0}, -3);
  EXPECT_EQ(render_cost_array(cost), "..\n");
}

TEST(Render, WindowClips) {
  CostArray cost(1, 10);
  cost.set({0, 5}, 2);
  EXPECT_EQ(render_cost_array(cost, 4, 6), ".2.\n");
}

TEST(Render, RouteOverlay) {
  CostArray cost(2, 4);
  cost.set({1, 3}, 7);
  WireRoute route;
  route.runs = {{0, 0, 1}, {1, 1, 1}};  // sorted, disjoint
  EXPECT_EQ(render_route(cost, route), "**..\n.*.7\n");
}

}  // namespace
}  // namespace locus
