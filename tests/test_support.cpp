// Unit tests for the support library: RNG determinism and distributions,
// table/CSV rendering, CLI parsing.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>

#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace locus {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 90);
}

TEST(Rng, BoundedStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(13), 13u);
  }
}

TEST(Rng, BoundedCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.bounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GeometricRespectsCap) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(rng.geometric(0.1, 5), 5);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Table, RendersAlignedColumns) {
  Table t;
  t.column("name", Align::kLeft).column("value");
  t.row().cell("alpha").cell(42);
  t.row().cell("b").cell(7);
  std::string out = t.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha |    42 |"), std::string::npos);
  EXPECT_NE(out.find("| b     |     7 |"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t;
  t.column("a").column("b");
  t.row().cell("x,y").cell("say \"hi\"");
  std::string csv = t.render_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, FixedFormatting) {
  EXPECT_EQ(format_fixed(1.23456, 3), "1.235");
  EXPECT_EQ(format_fixed(2.0, 1), "2.0");
  EXPECT_EQ(format_mbytes(1893000), "1.893");
}

TEST(Table, SeparatorInsertsRule) {
  Table t;
  t.column("x");
  t.row().cell(1);
  t.separator();
  t.row().cell(2);
  std::string out = t.render();
  // header rule + top + bottom + one separator = 4 horizontal rules
  int rules = 0;
  for (std::size_t pos = 0; (pos = out.find("+--", pos)) != std::string::npos; ++pos) {
    ++rules;
  }
  EXPECT_EQ(rules, 4);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  Cli cli;
  cli.flag("iters", "iterations", "2");
  cli.flag("verbose", "chatty", false);
  const char* argv[] = {"prog", "--iters=5", "--verbose", "file.ckt"};
  ASSERT_TRUE(cli.parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(cli.get_int("iters"), 5);
  EXPECT_TRUE(cli.get_bool("verbose"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "file.ckt");
}

TEST(Cli, SeparateValueForm) {
  Cli cli;
  cli.flag("n", "count", "1");
  const char* argv[] = {"prog", "--n", "9"};
  ASSERT_TRUE(cli.parse(3, const_cast<char**>(argv)));
  EXPECT_EQ(cli.get_int("n"), 9);
}

/// A flag set on the command line is given even at its default value; one
/// left out is not.
TEST(Cli, GivenTracksTheCommandLine) {
  Cli cli;
  cli.flag("n", "count", "1");
  cli.flag("m", "count", "2");
  cli.flag("quiet", "terse", false);
  cli.flag("verbose", "chatty", false);
  const char* argv[] = {"prog", "--n=1", "--verbose"};
  ASSERT_TRUE(cli.parse(3, const_cast<char**>(argv)));
  EXPECT_TRUE(cli.given("n"));
  EXPECT_FALSE(cli.given("m"));
  EXPECT_FALSE(cli.given("quiet"));
  EXPECT_TRUE(cli.given("verbose"));
}

TEST(Cli, RejectsUnknownFlag) {
  Cli cli;
  cli.flag("n", "count", "1");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(cli.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, BoundedIntRejectsMalformedAndOutOfRange) {
  Cli cli;
  cli.flag("n", "count", "1");
  cli.flag("lo", "too small", "0");
  cli.flag("hi", "too big", "9");
  cli.flag("word", "not a number", "abc");
  cli.flag("tail", "trailing junk", "3x");
  cli.flag("empty", "empty", "");
  const char* argv[] = {"prog", "--n=8"};
  ASSERT_TRUE(cli.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(cli.get_bounded_int("n", 1, 8), 8);
  for (const char* name : {"lo", "hi", "word", "tail", "empty"}) {
    EXPECT_THROW(cli.get_bounded_int(name, 1, 8), std::invalid_argument) << name;
  }
}

TEST(Cli, Uint64RejectsMalformedAndNegative) {
  Cli cli;
  cli.flag("seed", "seed", "1");
  cli.flag("max", "largest", "18446744073709551615");
  cli.flag("over", "2^64", "18446744073709551616");
  cli.flag("neg", "negative", "-1");
  cli.flag("plus", "signed", "+1");
  cli.flag("word", "not a number", "abc");
  cli.flag("tail", "trailing junk", "12x");
  cli.flag("empty", "empty", "");
  const char* argv[] = {"prog", "--seed=7"};
  ASSERT_TRUE(cli.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(cli.get_uint64("seed"), 7u);
  EXPECT_EQ(cli.get_uint64("max"), std::numeric_limits<std::uint64_t>::max());
  for (const char* name : {"over", "neg", "plus", "word", "tail", "empty"}) {
    EXPECT_THROW(cli.get_uint64(name), std::invalid_argument) << name;
  }
}

TEST(Cli, DefaultsSurviveNoArgs) {
  Cli cli;
  cli.flag("mode", "mode", "fast");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(cli.get("mode"), "fast");
}

}  // namespace
}  // namespace locus
