// Network test battery: topology route/index properties across mesh,
// torus, and fat tree; the M/D/1 waiting-time closed form and its
// saturation clamp; the per-link byte conservation law under every cost
// model x topology; transport recovery bit-identity with the M/D/1 model
// on; and the full differential-oracle matrix (four MP schedules x three
// topologies x two cost models) with the consistency checker and
// transport ledger asserted everywhere. Last, the exact work counts of
// three fixed injection storms (a 4x4 mesh under each link cost model and
// a 16-leaf binary fat tree under M/D/1).
#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "check/oracle.hpp"
#include "harness/experiments.hpp"
#include "msg/driver.hpp"
#include "sim/event_queue.hpp"
#include "sim/link_cost.hpp"
#include "sim/network.hpp"
#include "sim/topology.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace locus {
namespace {

// --- Topology properties (500-seed sweep over dims/shapes) ---

constexpr int kSeeds = 500;

/// Draws a random mesh/torus shape: 1-3 dimensions of extent 1-6 with at
/// least two nodes total.
std::vector<std::int32_t> random_dims(Rng& rng) {
  for (;;) {
    const auto ndims = static_cast<std::size_t>(1 + rng.bounded(3));
    std::vector<std::int32_t> dims(ndims);
    std::int32_t nodes = 1;
    for (std::size_t d = 0; d < ndims; ++d) {
      dims[d] = static_cast<std::int32_t>(1 + rng.bounded(6));
      nodes *= dims[d];
    }
    if (nodes >= 2) return dims;
  }
}

TEST(TopologyProperties, DistanceEqualsRouteLengthEverywhere) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 1000003 + 17);
    const std::vector<std::int32_t> dims = random_dims(rng);
    const Topology::Edges edges =
        rng.bounded(2) == 0 ? Topology::Edges::kMesh : Topology::Edges::kTorus;
    const Topology topo(dims, edges);
    const auto n = static_cast<std::uint64_t>(topo.num_nodes());
    const auto src = static_cast<std::int32_t>(rng.bounded(n));
    const auto dst = static_cast<std::int32_t>(rng.bounded(n));
    ASSERT_EQ(static_cast<std::size_t>(topo.distance(src, dst)),
              topo.route(src, dst).size())
        << "seed " << seed;
  }
}

TEST(TopologyProperties, FatTreeDistanceEqualsRouteLength) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 999983 + 5);
    const auto leaves = static_cast<std::int32_t>(2 + rng.bounded(30));
    const auto arity = static_cast<std::int32_t>(2 + rng.bounded(3));
    const Topology topo = Topology::fat_tree(leaves, arity);
    const auto n = static_cast<std::uint64_t>(topo.num_nodes());
    const auto src = static_cast<std::int32_t>(rng.bounded(n));
    const auto dst = static_cast<std::int32_t>(rng.bounded(n));
    ASSERT_EQ(static_cast<std::size_t>(topo.distance(src, dst)),
              topo.route(src, dst).size())
        << "seed " << seed;
  }
}

TEST(TopologyProperties, TorusRoutesTakeTheShorterWayWithPositiveTieBreak) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
    const std::vector<std::int32_t> dims = random_dims(rng);
    const Topology torus(dims, Topology::Edges::kTorus);
    const auto n = static_cast<std::uint64_t>(torus.num_nodes());
    const auto src = static_cast<std::int32_t>(rng.bounded(n));
    const auto dst = static_cast<std::int32_t>(rng.bounded(n));
    const std::vector<std::int32_t> a = torus.coords(src);
    const std::vector<std::int32_t> b = torus.coords(dst);
    const std::vector<LinkId> path = torus.route(src, dst);
    std::size_t hop = 0;
    for (std::size_t d = 0; d < dims.size(); ++d) {
      const std::int32_t k = dims[d];
      const std::int32_t fwd = (b[d] - a[d] + k) % k;
      const std::int32_t steps = std::min(fwd, k - fwd);
      // Every step this dimension takes goes the shorter way; exact ties
      // (fwd == k - fwd) break positive.
      const bool expect_positive = fwd <= k - fwd;
      for (std::int32_t s = 0; s < steps; ++s, ++hop) {
        ASSERT_LT(hop, path.size());
        ASSERT_EQ(path[hop].dim, static_cast<std::int32_t>(d)) << "seed " << seed;
        ASSERT_EQ(path[hop].positive, expect_positive) << "seed " << seed;
      }
    }
    ASSERT_EQ(hop, path.size()) << "seed " << seed;
  }
}

TEST(TopologyProperties, LinkIndexInjectiveOverRouteEmittedLinks) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 11);
    Topology topo = [&] {
      switch (rng.bounded(3)) {
        case 0: return Topology(random_dims(rng), Topology::Edges::kMesh);
        case 1: return Topology(random_dims(rng), Topology::Edges::kTorus);
        default:
          return Topology::fat_tree(
              static_cast<std::int32_t>(2 + rng.bounded(30)),
              static_cast<std::int32_t>(2 + rng.bounded(3)));
      }
    }();
    // index -> the (from, dim, positive) triple that claimed it; a second
    // distinct triple on the same index is an injectivity violation.
    std::map<std::int32_t, std::tuple<std::int32_t, std::int32_t, bool>> seen;
    const std::int32_t nodes = topo.num_nodes();
    for (std::int32_t src = 0; src < nodes; ++src) {
      for (std::int32_t dst = 0; dst < nodes; ++dst) {
        for (const LinkId& link : topo.route(src, dst)) {
          const std::int32_t index = topo.link_index(link);
          ASSERT_GE(index, 0);
          ASSERT_LT(index, topo.num_links());
          const auto key = std::make_tuple(link.from, link.dim, link.positive);
          const auto [it, inserted] = seen.emplace(index, key);
          ASSERT_TRUE(inserted || it->second == key)
              << "seed " << seed << ": two links share index " << index;
        }
      }
    }
  }
}

TEST(TopologyProperties, FatTreeUpDownRoutesNeverRevisitASwitch) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 15485863 + 7);
    const auto leaves = static_cast<std::int32_t>(2 + rng.bounded(30));
    const auto arity = static_cast<std::int32_t>(2 + rng.bounded(3));
    const Topology topo = Topology::fat_tree(leaves, arity);
    const auto n = static_cast<std::uint64_t>(topo.num_nodes());
    const auto src = static_cast<std::int32_t>(rng.bounded(n));
    const auto dst = static_cast<std::int32_t>(rng.bounded(n));
    const std::vector<LinkId> path = topo.route(src, dst);
    if (src == dst) {
      ASSERT_TRUE(path.empty());
      continue;
    }
    // Walk the route, tracking every tree node (level, position) touched:
    // the climb visits strictly increasing levels, the descent strictly
    // decreasing ones, and no node repeats.
    std::set<std::pair<std::int32_t, std::int32_t>> visited;
    ASSERT_TRUE(visited.insert({0, src}).second);
    std::int32_t at_level = 0;
    std::int32_t at_pos = src;
    bool descending = false;
    for (const LinkId& link : path) {
      if (link.positive) {
        ASSERT_FALSE(descending) << "seed " << seed << ": up after down";
        ASSERT_EQ(link.dim, at_level);
        ASSERT_EQ(link.from, at_pos);
        at_level = link.dim + 1;
        at_pos = link.from / arity;
      } else {
        descending = true;
        ASSERT_EQ(link.dim + 1, at_level);
        ASSERT_EQ(link.from / arity, at_pos);
        at_level = link.dim;
        at_pos = link.from;
      }
      ASSERT_TRUE(visited.insert({at_level, at_pos}).second)
          << "seed " << seed << ": revisited a switch at level " << at_level;
    }
    ASSERT_EQ(at_level, 0);
    ASSERT_EQ(at_pos, dst);
  }
}

TEST(TopologyFatTree, ShapeAndCapacityScale) {
  const Topology topo = Topology::fat_tree(16, 2);
  EXPECT_EQ(topo.num_nodes(), 16);
  EXPECT_EQ(topo.tree_levels(), 4);
  // One up + one down link per non-root tree node: 2 * (16 + 8 + 4 + 2).
  EXPECT_EQ(topo.num_links(), 60);
  EXPECT_EQ(topo.distance(0, 1), 2);   // siblings meet at their parent
  EXPECT_EQ(topo.distance(0, 15), 8);  // opposite halves climb to the root
  // Leaf links drain at the base rate; a level-l link aggregates 2^l leaves.
  EXPECT_EQ(topo.link_capacity_scale(topo.link_index({0, 0, true})), 1);
  EXPECT_EQ(topo.link_capacity_scale(topo.link_index({0, 3, true})), 8);
  // Padded leaves: 5 processors embed in an 8-leaf tree, ids unchanged.
  const Topology padded = Topology::fat_tree(5, 2);
  EXPECT_EQ(padded.num_nodes(), 5);
  EXPECT_EQ(padded.tree_levels(), 3);
  EXPECT_EQ(padded.distance(0, 4), 6);
}

// --- M/D/1 closed form and saturation (golden) ---

TEST(Md1Golden, ClosedFormAtPinnedUtilizations) {
  // Wq = S * rho / (2 * (1 - rho)), deterministic service S = 1000 ns:
  //   rho 0.1: 1000 * 0.1 / 1.8 = 55.55.. -> 55
  //   rho 0.5: 1000 * 0.5 / 1.0 = 500
  //   rho 0.9: 1000 * 0.9 / 0.2 = 4500
  EXPECT_EQ(md1_wait_ns(1000, 0.1), 55);
  EXPECT_EQ(md1_wait_ns(1000, 0.5), 500);
  EXPECT_EQ(md1_wait_ns(1000, 0.9), 4500);
  // Scales linearly in the service time.
  EXPECT_EQ(md1_wait_ns(6400, 0.5), 3200);
  // Degenerate inputs cost nothing.
  EXPECT_EQ(md1_wait_ns(1000, 0.0), 0);
  EXPECT_EQ(md1_wait_ns(1000, -1.0), 0);
  EXPECT_EQ(md1_wait_ns(0, 0.9), 0);
}

TEST(Md1Golden, SaturationIsClampedFiniteAndMonotone) {
  // Past kMd1RhoMax the delay pins at the clamp value instead of diverging:
  // S * 0.95 / (2 * 0.05) = 9.5 * S, which lands at 9499 after the binary
  // representation of (1 - 0.95) and the truncating ns cast.
  const SimTime clamp = md1_wait_ns(1000, 0.95);
  EXPECT_GE(clamp, 9499);
  EXPECT_LE(clamp, 9500);
  EXPECT_EQ(md1_wait_ns(1000, 0.999), clamp);
  EXPECT_EQ(md1_wait_ns(1000, 1.0), clamp);
  EXPECT_EQ(md1_wait_ns(1000, 100.0), clamp);
  // Monotone non-decreasing in rho all the way into saturation, and finite
  // (no overflow) even for large service times.
  SimTime prev = 0;
  for (double rho = 0.0; rho <= 2.0; rho += 0.01) {
    const SimTime w = md1_wait_ns(1'000'000'000, rho);
    EXPECT_GE(w, prev) << "rho " << rho;
    EXPECT_LE(w, static_cast<SimTime>(9.5 * 1e9) + 1);
    prev = w;
  }
}

// --- Conservation: per-link bytes sum exactly to byte_hops ---

struct MatrixCase {
  Topology::Edges edges;
  LinkCostModelKind kind;
};

std::vector<MatrixCase> full_matrix() {
  std::vector<MatrixCase> cases;
  for (Topology::Edges edges : {Topology::Edges::kMesh, Topology::Edges::kTorus,
                                Topology::Edges::kFatTree}) {
    for (LinkCostModelKind kind :
         {LinkCostModelKind::kFixed, LinkCostModelKind::kMd1}) {
      cases.push_back({edges, kind});
    }
  }
  return cases;
}

const char* edges_name(Topology::Edges edges) {
  switch (edges) {
    case Topology::Edges::kMesh: return "mesh";
    case Topology::Edges::kTorus: return "torus";
    case Topology::Edges::kFatTree: return "fat-tree";
  }
  return "?";
}

TEST(LinkConservation, LinkBytesSumToByteHopsUnderEveryModelAndTopology) {
  const Circuit circuit = test::make_seeded_circuit(7);
  for (const MatrixCase& c : full_matrix()) {
    SCOPED_TRACE(std::string(edges_name(c.edges)) + " x " +
                 link_cost_model_name(c.kind));
    MpConfig mp;
    mp.schedule = UpdateSchedule::receiver(5, 2);
    mp.iterations = 2;
    mp.edges = c.edges;
    mp.link_cost.kind = c.kind;
    // Transport on: the control plane (acks, retransmit charges) books its
    // bytes through charge_control, which must stay inside the law.
    mp.transport.enabled = true;
    const MpRunResult run = run_message_passing(circuit, 4, mp);
    ASSERT_GT(run.network.byte_hops, 0u);
    std::uint64_t link_total = 0;
    for (std::uint64_t b : run.link_bytes) link_total += b;
    EXPECT_EQ(link_total, run.network.byte_hops);
    EXPECT_GT(run.link_usage.links_used, 0);
    EXPECT_TRUE(run.transport.books_balance());
  }
}

TEST(LinkConservation, FixedModelIsByteIdenticalToDefaultRun) {
  // The seam's kFixed must reproduce the pre-seam network exactly: a config
  // that never mentions link_cost and one that sets kFixed explicitly are
  // the same simulation.
  const Circuit circuit = test::make_seeded_circuit(11);
  MpConfig base;
  base.schedule = UpdateSchedule::sender(2, 5);
  base.iterations = 2;
  MpConfig fixed = base;
  fixed.link_cost.kind = LinkCostModelKind::kFixed;
  const MpRunResult a = run_message_passing(circuit, 4, base);
  const MpRunResult b = run_message_passing(circuit, 4, fixed);
  EXPECT_EQ(a.completion_ns, b.completion_ns);
  EXPECT_EQ(a.network.byte_hops, b.network.byte_hops);
  EXPECT_EQ(a.network.total_link_wait_ns, b.network.total_link_wait_ns);
  EXPECT_TRUE(a.routes == b.routes);
}

// --- Transport recovery bit-identity with the M/D/1 model on ---

TEST(Md1TransportRecovery, FaultedRunIsBitIdenticalToFaultFree) {
  const Circuit circuit = test::make_seeded_circuit(7);
  FaultPlan plan;
  plan.drop_rate = 0.02;
  plan.seed = 99;
  for (Topology::Edges edges :
       {Topology::Edges::kMesh, Topology::Edges::kFatTree}) {
    SCOPED_TRACE(edges_name(edges));
    MpConfig clean;
    clean.schedule = UpdateSchedule::sender(2, 5);
    clean.iterations = 2;
    clean.edges = edges;
    clean.link_cost.kind = LinkCostModelKind::kMd1;
    clean.transport.enabled = true;
    MpConfig faulted = clean;
    faulted.faults = &plan;
    const MpRunResult base = run_message_passing(circuit, 4, clean);
    const MpRunResult run = run_message_passing(circuit, 4, faulted);
    ASSERT_GT(run.faults.dropped, 0u);  // the plan actually fired
    // Recovery happens below the application: routes, completion time, and
    // view staleness are bit-identical to the fault-free run, and the
    // transport ledger balances.
    EXPECT_TRUE(base.routes == run.routes);
    EXPECT_EQ(base.completion_ns, run.completion_ns);
    EXPECT_EQ(base.view_staleness, run.view_staleness);
    EXPECT_EQ(base.circuit_height, run.circuit_height);
    EXPECT_TRUE(run.transport.books_balance());
    // The faulted wire attempts inflate traffic, never shrink it.
    EXPECT_GE(run.network.bytes, base.network.bytes);
  }
}

// --- The full oracle matrix: 4 schedules x 3 topologies x 2 models ---

TEST(NetworkOracleMatrix, AllSchedulesPassUnderEveryModelAndTopology) {
  const Circuit circuit = test::make_seeded_circuit(7);
  for (const MatrixCase& c : full_matrix()) {
    SCOPED_TRACE(std::string(edges_name(c.edges)) + " x " +
                 link_cost_model_name(c.kind));
    OracleConfig config;
    config.procs = 4;
    config.edges = c.edges;
    config.link_cost.kind = c.kind;
    config.transport.enabled = true;
    const OracleResult result = run_differential_oracle(circuit, config);
    EXPECT_TRUE(result.all_ok()) << result.describe();
  }
}

// --- run_topology_sweep: the sweep check_tool topology runs ---

TEST(TopologySweep, EmitsFullMatrixAndPassesChecks) {
  const Circuit circuit = test::make_seeded_circuit(7);
  const CheckedSweep result =
      run_topology_sweep(circuit, ExperimentConfig{.procs = 4});
  // 4 schedules x 3 topologies x 2 cost models.
  EXPECT_EQ(result.runs, 24);
  EXPECT_TRUE(result.all_ok);
  const std::string rendered = result.table.render();
  for (const char* needle : {"fat-tree", "torus", "mesh", "fixed", "md1",
                             "max util", "stalls"}) {
    EXPECT_NE(rendered.find(needle), std::string::npos) << needle;
  }
}

// --- Injection storms: exact simulated work counts ---

struct StormCounts {
  std::uint64_t delivered = 0;
  SimTime finish = 0;
  std::uint64_t byte_hops = 0;
  std::uint64_t stalls = 0;
  std::uint64_t events = 0;
  std::size_t peak_pending = 0;
  std::size_t in_flight_after = 0;
};

/// 4096 packets of 64 B on a 16-node topology (source i % 16, destination
/// (7i + 1) % 16, bumped off the source), injected in 32 waves 50 ns apart
/// and priced under `kind`.
StormCounts run_storm(const Topology& topo, LinkCostModelKind kind) {
  StormCounts out;
  EventQueue q;
  Network net(topo, LinkCostParams{kind}, q, [&](const Packet&, SimTime at) {
    ++out.delivered;
    out.finish = std::max(out.finish, at);
  });
  for (int i = 0; i < 4096; ++i) {
    Packet p;
    p.src = i % 16;
    p.dst = (i * 7 + 1) % 16;
    if (p.dst == p.src) p.dst = (p.dst + 1) % 16;
    p.type = 1;
    p.bytes = 64;
    net.schedule_inject(std::move(p), (i % 32) * 50);
  }
  q.run();
  out.byte_hops = net.stats().byte_hops;
  out.stalls = net.link_usage(out.finish).stalls;
  out.events = q.executed();
  out.peak_pending = q.peak_pending();
  out.in_flight_after = net.packets_in_flight();
  return out;
}

TEST(NetworkStorm, MeshStormUnderEachLinkCostModel) {
  const Topology mesh({4, 4}, Topology::Edges::kMesh);
  // kFixed is the default, so this is also the storm under default params.
  const StormCounts fixed = run_storm(mesh, LinkCostModelKind::kFixed);
  EXPECT_EQ(fixed.delivered, 4096u);
  EXPECT_EQ(fixed.events, 8192u);
  EXPECT_EQ(fixed.peak_pending, 4096u);
  EXPECT_EQ(fixed.in_flight_after, 0u);
  EXPECT_EQ(fixed.finish, 3'279'600);
  EXPECT_EQ(fixed.byte_hops, 589'824u);
  EXPECT_EQ(fixed.stalls, 768u);
  const StormCounts md1 = run_storm(mesh, LinkCostModelKind::kMd1);
  EXPECT_EQ(md1.delivered, 4096u);
  EXPECT_EQ(md1.finish, 3'407'710);
  EXPECT_EQ(md1.byte_hops, 589'824u);
  EXPECT_EQ(md1.stalls, 9182u);
}

TEST(NetworkStorm, FatTreeRoutesAndMd1Storm) {
  const Topology tree = Topology::fat_tree(16, 2);
  std::size_t hops = 0;
  for (int i = 0; i < 100'000; ++i) hops += tree.route(i % 16, (i * 13 + 5) % 16).size();
  EXPECT_EQ(hops, 625'000u);
  const StormCounts md1 = run_storm(tree, LinkCostModelKind::kMd1);
  EXPECT_EQ(md1.delivered, 4096u);
  EXPECT_EQ(md1.finish, 3'238'394);
  EXPECT_EQ(md1.stalls, 24'516u);
}

}  // namespace
}  // namespace locus
