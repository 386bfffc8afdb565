// Tests for the circuit model and the synthetic generators.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "circuit/circuit.hpp"
#include "circuit/generator.hpp"
#include "circuit/stats.hpp"

namespace locus {
namespace {

Wire make_wire(std::vector<Pin> pins) {
  Wire w;
  w.pins = std::move(pins);
  return w;
}

TEST(Circuit, SortsPinsByXThenRow) {
  Circuit c("t", 4, 20, {make_wire({{15, 1}, {3, 2}, {3, 0}})});
  const Wire& w = c.wire(0);
  EXPECT_EQ(w.pins[0], (Pin{3, 0}));
  EXPECT_EQ(w.pins[1], (Pin{3, 2}));
  EXPECT_EQ(w.pins[2], (Pin{15, 1}));
}

TEST(Circuit, AssignsSequentialIds) {
  Circuit c("t", 4, 20,
            {make_wire({{0, 0}, {5, 0}}), make_wire({{1, 1}, {6, 1}})});
  EXPECT_EQ(c.wire(0).id, 0);
  EXPECT_EQ(c.wire(1).id, 1);
  EXPECT_EQ(c.num_wires(), 2);
  EXPECT_EQ(c.num_cell_rows(), 3);
}

/// The tiny circuit has 4 channels x 32 grids: a 2x2 or 4x8 mesh fits, an
/// 8x8 one (64 processors) needs more channels than it has, and a 1x37
/// line (37 processors, a prime) more grids.
TEST(Circuit, FittedMeshRejectsMeshLargerThanCircuit) {
  const Circuit tiny = make_tiny_test_circuit();
  ASSERT_EQ(tiny.channels(), 4);
  ASSERT_EQ(tiny.grids(), 32);
  EXPECT_EQ(fitted_mesh(tiny, 4).procs(), 4);
  EXPECT_EQ(fitted_mesh(tiny, 32).rows, 4);
  EXPECT_THROW(fitted_mesh(tiny, 37), std::invalid_argument);
  try {
    fitted_mesh(tiny, 64);
    ADD_FAILURE() << "an 8x8 mesh over 4 channels was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--procs=64 needs a 8x8 mesh, more than tiny's 4 channels x 32 grids");
  }
}

TEST(Wire, PinChannels) {
  Pin p{10, 2};
  EXPECT_EQ(p.channel_above(), 2);
  EXPECT_EQ(p.channel_below(), 3);
}

TEST(Wire, PinBboxCoversBothChannelOptions) {
  Wire w = make_wire({{3, 0}, {9, 2}});
  Rect box = w.pin_bbox();
  EXPECT_EQ(box, Rect::of(0, 3, 3, 9));
}

TEST(Wire, LengthCostSumsAdjacentSpans) {
  Circuit c("t", 6, 50, {make_wire({{0, 0}, {10, 2}, {30, 1}})});
  // |10-0| + |2-0| = 12; |30-10| + |1-2| = 21; total 33.
  EXPECT_EQ(c.wire(0).length_cost(), 33);
}

TEST(Wire, AssignmentCostIsBboxArea) {
  Circuit c("t", 6, 50, {make_wire({{0, 0}, {10, 2}})});
  // channels 0..3, x 0..10 -> 4 * 11.
  EXPECT_EQ(c.wire(0).assignment_cost(), 44);
}

TEST(Generator, DeterministicForSameSeed) {
  GeneratorParams p;
  p.num_wires = 50;
  p.seed = 99;
  Circuit a = generate_circuit(p);
  Circuit b = generate_circuit(p);
  ASSERT_EQ(a.num_wires(), b.num_wires());
  for (WireId i = 0; i < a.num_wires(); ++i) {
    EXPECT_EQ(a.wire(i).pins, b.wire(i).pins);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorParams p;
  p.num_wires = 50;
  p.seed = 1;
  Circuit a = generate_circuit(p);
  p.seed = 2;
  Circuit b = generate_circuit(p);
  int differing = 0;
  for (WireId i = 0; i < a.num_wires(); ++i) {
    if (a.wire(i).pins != b.wire(i).pins) ++differing;
  }
  EXPECT_GT(differing, 25);
}

TEST(Generator, BnreLikeHasPublishedDimensions) {
  Circuit c = make_bnre_like();
  EXPECT_EQ(c.name(), "bnrE-like");
  EXPECT_EQ(c.channels(), 10);
  EXPECT_EQ(c.grids(), 341);
  EXPECT_EQ(c.num_wires(), 420);
}

TEST(Generator, MdcLikeHasPublishedDimensions) {
  Circuit c = make_mdc_like();
  EXPECT_EQ(c.channels(), 12);
  EXPECT_EQ(c.grids(), 386);
  EXPECT_EQ(c.num_wires(), 573);
}

TEST(Generator, IndustrialLikeDimensions) {
  Circuit c = make_industrial_like();
  EXPECT_EQ(c.channels(), 18);
  EXPECT_EQ(c.grids(), 900);
  EXPECT_EQ(c.num_wires(), 2000);
}

TEST(Generator, NamedCircuitBuildsEachKnownName) {
  EXPECT_EQ(make_named_circuit("bnre").num_wires(), make_bnre_like().num_wires());
  EXPECT_EQ(make_named_circuit("mdc").num_wires(), make_mdc_like().num_wires());
  const Circuit tiny = make_named_circuit("tiny");
  EXPECT_EQ(tiny.num_wires(), make_tiny_test_circuit().num_wires());
  EXPECT_EQ(tiny.grids(), make_tiny_test_circuit().grids());
}

TEST(Generator, NamedCircuitRejectsUnknownName) {
  EXPECT_THROW(make_named_circuit("bogus"), std::invalid_argument);
  EXPECT_THROW(make_named_circuit(""), std::invalid_argument);
  EXPECT_THROW(make_named_circuit("BNRE"), std::invalid_argument);
  try {
    make_named_circuit("bogus");
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("bnre | mdc | tiny"), std::string::npos);
  }
}

TEST(Generator, EveryWireHasAtLeastTwoDistinctPinSites) {
  Circuit c = make_bnre_like();
  for (const Wire& w : c.wires()) {
    ASSERT_GE(w.pins.size(), 2u);
    bool distinct = false;
    for (const Pin& p : w.pins) {
      if (p != w.pins.front()) distinct = true;
    }
    EXPECT_TRUE(distinct) << "wire " << w.id;
  }
}

TEST(Generator, LengthMixSupportsThresholdExperiments) {
  // The ThresholdCost experiments need all three settings (30 / 1000 / inf)
  // to produce different assignments: some wires below 30, some between,
  // and some above 1000.
  for (const Circuit& c : {make_bnre_like(), make_mdc_like()}) {
    int below30 = 0, mid = 0, above1000 = 0;
    for (const Wire& w : c.wires()) {
      std::int64_t cost = w.assignment_cost();
      if (cost < 30) ++below30;
      else if (cost < 1000) ++mid;
      else ++above1000;
    }
    EXPECT_GT(below30, c.num_wires() / 10) << c.name();
    EXPECT_GT(mid, c.num_wires() / 10) << c.name();
    EXPECT_GT(above1000, 5) << c.name();
  }
}

TEST(Stats, CountsAndMeans) {
  Circuit c("t", 6, 50,
            {make_wire({{0, 0}, {10, 0}}), make_wire({{0, 1}, {4, 1}, {9, 1}})});
  CircuitStats s = compute_stats(c);
  EXPECT_EQ(s.num_wires, 2);
  EXPECT_EQ(s.total_pins, 5);
  EXPECT_EQ(s.max_pins, 3);
  EXPECT_DOUBLE_EQ(s.mean_pins, 2.5);
  EXPECT_EQ(s.total_length_cost, 10 + 9);
  EXPECT_EQ(s.max_length_cost, 10);
}

TEST(Stats, DescribeMentionsNameAndDims) {
  Circuit c = make_tiny_test_circuit();
  std::string d = describe(c);
  EXPECT_NE(d.find("tiny"), std::string::npos);
  EXPECT_NE(d.find("4 channels"), std::string::npos);
  EXPECT_NE(d.find("32 grids"), std::string::npos);
}

/// Property sweep over generator seeds: structural invariants hold for any
/// seed.
class GeneratorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorProperty, StructurallyValid) {
  GeneratorParams p;
  p.channels = 6;
  p.grids = 64;
  p.num_wires = 80;
  p.seed = GetParam();
  Circuit c = generate_circuit(p);
  EXPECT_EQ(c.num_wires(), 80);
  for (const Wire& w : c.wires()) {
    EXPECT_GE(w.pins.size(), 2u);
    EXPECT_LE(static_cast<std::int32_t>(w.pins.size()), p.max_pins);
    for (std::size_t i = 1; i < w.pins.size(); ++i) {
      EXPECT_LE(w.pins[i - 1].x, w.pins[i].x);  // sorted
    }
    for (const Pin& pin : w.pins) {
      EXPECT_GE(pin.x, 0);
      EXPECT_LT(pin.x, 64);
      EXPECT_GE(pin.row, 0);
      EXPECT_LT(pin.row, 5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty,
                         ::testing::Values(0, 1, 2, 3, 17, 42, 1000, 123456789));

}  // namespace
}  // namespace locus
