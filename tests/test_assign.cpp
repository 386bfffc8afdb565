// Tests for wire assignment strategies, the locality measure, and the
// wire-affinity index behind locality-aware dynamic scheduling.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "assign/affinity.hpp"
#include "assign/assignment.hpp"
#include "assign/locality.hpp"
#include "circuit/generator.hpp"
#include "route/sequential.hpp"

namespace locus {
namespace {

TEST(AssignRoundRobin, DealsWiresCyclically) {
  Circuit c = make_tiny_test_circuit();
  Assignment a = assign_round_robin(c, 4);
  EXPECT_TRUE(assignment_is_valid(a, c));
  for (WireId id = 0; id < c.num_wires(); ++id) {
    EXPECT_EQ(a.proc_of_wire[static_cast<std::size_t>(id)], id % 4);
  }
  EXPECT_NEAR(a.count_imbalance(), 1.0, 0.2);
}

TEST(AssignRoundRobin, SingleProcGetsEverything) {
  Circuit c = make_tiny_test_circuit();
  Assignment a = assign_round_robin(c, 1);
  EXPECT_TRUE(assignment_is_valid(a, c));
  EXPECT_EQ(a.wires_per_proc[0].size(), static_cast<std::size_t>(c.num_wires()));
}

TEST(AssignThreshold, InfinityFollowsLeftmostPin) {
  Circuit c = make_bnre_like();
  Partition part(c.channels(), c.grids(), MeshShape::for_procs(16));
  Assignment a = assign_threshold_cost(c, part, kThresholdInfinity);
  EXPECT_TRUE(assignment_is_valid(a, c));
  for (const Wire& w : c.wires()) {
    const Pin& leftmost = w.pins.front();
    ProcId expected = part.owner({leftmost.channel_above(), leftmost.x});
    EXPECT_EQ(a.proc_of_wire[static_cast<std::size_t>(w.id)], expected);
  }
}

TEST(AssignThreshold, ShortWiresLocalLongWiresBalanced) {
  Circuit c = make_bnre_like();
  Partition part(c.channels(), c.grids(), MeshShape::for_procs(16));
  Assignment a = assign_threshold_cost(c, part, 1000);
  EXPECT_TRUE(assignment_is_valid(a, c));
  for (const Wire& w : c.wires()) {
    if (w.assignment_cost() < 1000) {
      const Pin& leftmost = w.pins.front();
      EXPECT_EQ(a.proc_of_wire[static_cast<std::size_t>(w.id)],
                part.owner({leftmost.channel_above(), leftmost.x}));
    }
  }
}

TEST(AssignThreshold, LowerThresholdImprovesBalance) {
  // The paper's tradeoff: more locality (higher threshold) means worse load
  // balance. tc30 must balance at least as well as tc=infinity.
  Circuit c = make_bnre_like();
  Partition part(c.channels(), c.grids(), MeshShape::for_procs(16));
  Assignment tc30 = assign_threshold_cost(c, part, 30);
  Assignment inf = assign_threshold_cost(c, part, kThresholdInfinity);
  EXPECT_LE(tc30.cost_imbalance(c), inf.cost_imbalance(c));
  // And the fully local assignment is measurably imbalanced on the
  // clustered synthetic circuit (this imbalance drives Table 4's time).
  EXPECT_GT(inf.cost_imbalance(c), 1.3);
}

TEST(AssignThreshold, RoutingOrderIsIdOrdered) {
  Circuit c = make_tiny_test_circuit();
  Partition part(c.channels(), c.grids(), MeshShape::for_procs(4));
  Assignment a = assign_threshold_cost(c, part, 30);
  for (const auto& list : a.wires_per_proc) {
    for (std::size_t i = 1; i < list.size(); ++i) {
      EXPECT_LT(list[i - 1], list[i]);
    }
  }
}

TEST(AssignmentValidity, DetectsCorruption) {
  Circuit c = make_tiny_test_circuit();
  Assignment a = assign_round_robin(c, 4);
  EXPECT_TRUE(assignment_is_valid(a, c));
  Assignment dup = a;
  dup.wires_per_proc[0].push_back(dup.wires_per_proc[1][0]);
  EXPECT_FALSE(assignment_is_valid(dup, c));
  Assignment mismatched = a;
  mismatched.proc_of_wire[0] = 3;
  if (a.proc_of_wire[0] == 3) mismatched.proc_of_wire[0] = 2;
  EXPECT_FALSE(assignment_is_valid(mismatched, c));
  Assignment missing = a;
  missing.wires_per_proc[0].clear();
  EXPECT_FALSE(assignment_is_valid(missing, c));
}

TEST(Locality, LocalAssignmentBeatsRoundRobin) {
  Circuit c = make_bnre_like();
  Partition part(c.channels(), c.grids(), MeshShape::for_procs(16));
  SequentialResult routed = route_sequential(c, {});

  Assignment rr = assign_round_robin(c, 16);
  Assignment local = assign_threshold_cost(c, part, kThresholdInfinity);
  double m_rr = locality_measure(routed.routes, rr, part);
  double m_local = locality_measure(routed.routes, local, part);
  EXPECT_LT(m_local, m_rr);
  // Paper §5.3.3: even the most local assignment cannot reach 0 because
  // long wires span regions; bnrE measured 1.21.
  EXPECT_GT(m_local, 0.3);
  EXPECT_LT(m_local, 2.5);
}

TEST(Locality, EstimateAgreesDirectionally) {
  Circuit c = make_bnre_like();
  Partition part(c.channels(), c.grids(), MeshShape::for_procs(16));
  Assignment rr = assign_round_robin(c, 16);
  Assignment local = assign_threshold_cost(c, part, kThresholdInfinity);
  EXPECT_LT(locality_estimate(c, local, part), locality_estimate(c, rr, part));
}

TEST(Locality, PerfectLocalityOnSingleProc) {
  Circuit c = make_tiny_test_circuit();
  Partition part(c.channels(), c.grids(), MeshShape::for_procs(1));
  SequentialResult routed = route_sequential(c, {});
  Assignment a = assign_round_robin(c, 1);
  EXPECT_DOUBLE_EQ(locality_measure(routed.routes, a, part), 0.0);
}

TEST(Locality, EstimateTracksMeasureWithinBand) {
  // §5.3.3: the pre-routing bounding-box estimate must land in the same
  // ballpark as the post-route measure — it exists to preview an
  // assignment's locality without routing.
  Circuit c = make_bnre_like();
  Partition part(c.channels(), c.grids(), MeshShape::for_procs(16));
  SequentialResult routed = route_sequential(c, {});
  for (std::int64_t threshold : {std::int64_t{30}, kThresholdInfinity}) {
    Assignment a = assign_threshold_cost(c, part, threshold);
    const double measured = locality_measure(routed.routes, a, part);
    const double estimated = locality_estimate(c, a, part);
    EXPECT_GT(measured, 0.0);
    EXPECT_GT(estimated, 0.5 * measured) << "threshold=" << threshold;
    EXPECT_LT(estimated, 2.0 * measured) << "threshold=" << threshold;
  }
}

TEST(WireAffinity, BucketsUnderLeftmostPinOwner) {
  // The index's home geography must match assign_threshold_cost(inf):
  // a requester draining only its own bucket gets exactly its static wires.
  Circuit c = make_bnre_like();
  Partition part(c.channels(), c.grids(), MeshShape::for_procs(16));
  Assignment inf = assign_threshold_cost(c, part, kThresholdInfinity);
  WireAffinityIndex index(c, part);
  for (ProcId p = 0; p < 16; ++p) {
    std::vector<WireId> got;
    // resident = {home} only, radius 1 so nothing roams in from elsewhere
    // once the home bucket is dry... but a dry bucket still yields kNearest
    // wires; cap the batch at the static count instead.
    const auto want = static_cast<std::int32_t>(inf.wires_per_proc[p].size());
    std::vector<ProcId> resident{p};
    WireAffinityIndex::Tier tier;
    const std::int32_t taken = index.take_batch(
        p, resident, want, /*cost_budget=*/0, /*max_hops=*/0, &got, &tier);
    EXPECT_EQ(taken, want);
    if (want > 0) {
      EXPECT_EQ(tier, WireAffinityIndex::Tier::kResident);
    }
    std::sort(got.begin(), got.end());
    std::vector<WireId> expect = inf.wires_per_proc[p];
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(got, expect) << "proc " << p;
  }
  EXPECT_EQ(index.remaining(), 0);
}

TEST(WireAffinity, HomePopsExpensiveForeignPopsCheap) {
  Circuit c = make_bnre_like();
  Partition part(c.channels(), c.grids(), MeshShape::for_procs(16));
  WireAffinityIndex index(c, part);
  // Find a region with at least two wires of distinct costs.
  Assignment inf = assign_threshold_cost(c, part, kThresholdInfinity);
  ProcId donor = -1;
  for (ProcId p = 0; p < 16; ++p) {
    if (inf.wires_per_proc[p].size() >= 2) { donor = p; break; }
  }
  ASSERT_GE(donor, 0);
  const auto cost = [&](WireId w) { return c.wire(w).assignment_cost(); };
  // Home drains its own bucket from the expensive end.
  std::vector<ProcId> resident{donor};
  const auto home_take = index.take(donor, resident);
  ASSERT_TRUE(home_take.has_value());
  for (WireId w : inf.wires_per_proc[donor]) {
    EXPECT_LE(cost(w), cost(*home_take));
  }
  // A foreign thief whose resident summary names the donor pops the cheap
  // end of the same bucket.
  index.reset();
  const ProcId thief = donor == 0 ? 1 : 0;
  const auto stolen = index.take(thief, resident);
  ASSERT_TRUE(stolen.has_value());
  for (WireId w : inf.wires_per_proc[donor]) {
    EXPECT_GE(cost(w), cost(*stolen));
  }
}

TEST(WireAffinity, CostBudgetBoundsBatchWork) {
  Circuit c = make_bnre_like();
  Partition part(c.channels(), c.grids(), MeshShape::for_procs(16));
  WireAffinityIndex index(c, part);
  const std::int64_t budget = 4 * index.mean_wire_cost();
  std::vector<ProcId> none;
  while (index.remaining() > 0) {
    std::vector<WireId> got;
    const std::int32_t taken =
        index.take_batch(0, none, /*count=*/1000, budget, /*max_hops=*/0, &got);
    ASSERT_GT(taken, 0);
    // Every wire but the last must have fit under the budget (the first
    // always pops, and the batch stops once the budget is reached).
    std::int64_t spent = 0;
    for (std::size_t i = 0; i + 1 < got.size(); ++i) {
      spent += c.wire(got[i]).assignment_cost() + 1;
      EXPECT_LT(spent, budget);
    }
  }
}

TEST(WireAffinity, RadiusDefersDistantRequesters) {
  // With max_hops bounding both tiers, a requester whose neighborhood is
  // exhausted gets 0 back while remaining() > 0 — the defer signal the
  // master turns into a parked request.
  Circuit c = make_bnre_like();
  Partition part(c.channels(), c.grids(), MeshShape::for_procs(16));
  WireAffinityIndex index(c, part);
  // Drain every bucket within 1 hop of proc 0 (a 4x4 mesh corner).
  std::vector<ProcId> none;
  std::vector<WireId> sink;
  while (index.take_batch(0, none, 1000, 0, /*max_hops=*/1, &sink) > 0) {}
  ASSERT_GT(index.remaining(), 0);  // distant buckets still hold wires
  // Find a distant region that still holds untaken wires (its static
  // assignment is nonempty and it sits beyond the radius from proc 0).
  Assignment inf = assign_threshold_cost(c, part, kThresholdInfinity);
  ProcId far_region = -1;
  for (ProcId r = 0; r < 16; ++r) {
    if (part.hop_distance(0, r) > 1 && !inf.wires_per_proc[r].empty()) {
      far_region = r;
    }
  }
  ASSERT_GE(far_region, 0);
  // Proc 0 is now refused (defer), even naming a distant resident region.
  std::vector<WireId> got;
  std::vector<ProcId> resident{far_region};
  EXPECT_EQ(index.take_batch(0, resident, 1, 0, /*max_hops=*/1, &got), 0);
  EXPECT_TRUE(got.empty());
  // The far region's own home requester still drains it — which is why the
  // defer protocol cannot deadlock.
  EXPECT_GT(index.take_batch(far_region, resident, 1, 0, /*max_hops=*/1, &got),
            0);
  // reset() rearms everything.
  index.reset();
  EXPECT_EQ(index.remaining(), c.num_wires());
  EXPECT_GT(index.take_batch(0, none, 1, 0, /*max_hops=*/1, &got), 0);
}

TEST(WireAffinity, DeterministicPopOrder) {
  Circuit c = make_bnre_like();
  Partition part(c.channels(), c.grids(), MeshShape::for_procs(16));
  std::vector<WireId> first, second;
  for (std::vector<WireId>* out : {&first, &second}) {
    WireAffinityIndex index(c, part);
    std::vector<ProcId> resident{3, 7};
    std::vector<WireId> got;
    while (index.take_batch(5, resident, 3, 2 * index.mean_wire_cost(),
                            /*max_hops=*/0, &got) > 0) {}
    *out = got;
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), static_cast<std::size_t>(c.num_wires()));
}

/// Property sweep: the threshold knob interpolates between balance and
/// locality for any processor count.
class ThresholdProperty : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(ThresholdProperty, ValidAcrossThresholds) {
  Circuit c = make_bnre_like();
  Partition part(c.channels(), c.grids(), MeshShape::for_procs(GetParam()));
  for (std::int64_t threshold : {std::int64_t{1}, std::int64_t{30},
                                 std::int64_t{300}, std::int64_t{1000},
                                 kThresholdInfinity}) {
    Assignment a = assign_threshold_cost(c, part, threshold);
    EXPECT_TRUE(assignment_is_valid(a, c)) << "procs=" << GetParam()
                                           << " threshold=" << threshold;
  }
}

INSTANTIATE_TEST_SUITE_P(Procs, ThresholdProperty,
                         ::testing::Values(2, 4, 6, 8, 9, 16));

}  // namespace
}  // namespace locus
