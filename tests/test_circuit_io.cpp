// Tests for the .ckt text format: round trips, rejection of every
// malformed-input class with the right line number, and a seeded mutation
// fuzz of a written circuit.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "circuit/generator.hpp"
#include "circuit/io.hpp"
#include "support/rng.hpp"

namespace locus {
namespace {

Circuit parse(const std::string& text) {
  std::istringstream in(text);
  return read_circuit(in);
}

TEST(CircuitIo, ParsesMinimalCircuit) {
  Circuit c = parse(
      "circuit demo 4 20\n"
      "wire 2\n"
      "pin 3 0\n"
      "pin 9 2\n"
      "end\n");
  EXPECT_EQ(c.name(), "demo");
  EXPECT_EQ(c.channels(), 4);
  EXPECT_EQ(c.grids(), 20);
  ASSERT_EQ(c.num_wires(), 1);
  EXPECT_EQ(c.wire(0).pins.size(), 2u);
}

TEST(CircuitIo, IgnoresCommentsAndBlankLines) {
  Circuit c = parse(
      "# a header comment\n"
      "\n"
      "circuit demo 4 20   # trailing comment\n"
      "  wire 2\n"
      "\tpin 3 0\n"
      "pin 9 2 # pin comment\n"
      "end\n");
  EXPECT_EQ(c.num_wires(), 1);
}

TEST(CircuitIo, RoundTripsGeneratedCircuits) {
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    Circuit original = make_tiny_test_circuit(seed);
    std::ostringstream out;
    write_circuit(out, original);
    Circuit parsed = parse(out.str());
    EXPECT_EQ(parsed.name(), original.name());
    EXPECT_EQ(parsed.channels(), original.channels());
    EXPECT_EQ(parsed.grids(), original.grids());
    ASSERT_EQ(parsed.num_wires(), original.num_wires());
    for (WireId i = 0; i < original.num_wires(); ++i) {
      EXPECT_EQ(parsed.wire(i).pins, original.wire(i).pins);
    }
    // Canonical output is stable: write(read(s)) == s.
    std::ostringstream again;
    write_circuit(again, parsed);
    EXPECT_EQ(again.str(), out.str());
  }
}

TEST(CircuitIo, FileRoundTrip) {
  Circuit original = make_tiny_test_circuit();
  const std::string path = ::testing::TempDir() + "/roundtrip.ckt";
  write_circuit_file(path, original);
  Circuit parsed = read_circuit_file(path);
  EXPECT_EQ(parsed.num_wires(), original.num_wires());
}

TEST(CircuitIo, MissingFileThrows) {
  EXPECT_THROW(read_circuit_file("/nonexistent/nope.ckt"), std::runtime_error);
}

/// Seeded mutation fuzz: byte flips, truncations and dropped lines of a
/// written circuit either parse into a circuit whose pins are all in range
/// and which round-trips write_circuit -> read_circuit unchanged, or throw
/// CircuitParseError (a std::runtime_error) -- never an abort.
TEST(CircuitIoFuzz, MutatedInputParsesOrThrows) {
  std::ostringstream written;
  write_circuit(written, make_tiny_test_circuit());
  const std::string clean = written.str();

  Rng rng(0xC4C7);
  int parsed = 0;
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string data = clean;
    const std::uint64_t kind = rng.bounded(3);
    if (kind == 0) {
      data.resize(rng.bounded(data.size()));
    } else if (kind == 1) {
      const auto flips = 1 + rng.bounded(4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        data[rng.bounded(data.size())] ^= static_cast<char>(1u << rng.bounded(8));
      }
    } else {
      // Drop one whole line, newline included.
      std::size_t begin = data.rfind('\n', rng.bounded(data.size()));
      begin = begin == std::string::npos ? 0 : begin + 1;
      const std::size_t end = data.find('\n', begin);
      data.erase(begin, end == std::string::npos ? std::string::npos : end - begin + 1);
    }
    std::optional<Circuit> maybe;
    try {
      maybe = parse(data);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    }
    ++parsed;
    const Circuit& circuit = *maybe;
    for (const Wire& wire : circuit.wires()) {
      ASSERT_GE(wire.pins.size(), 2u) << data;
      for (const Pin& pin : wire.pins) {
        ASSERT_TRUE(pin.x >= 0 && pin.x < circuit.grids() && pin.row >= 0 &&
                    pin.row < circuit.num_cell_rows())
            << data;
      }
    }
    std::ostringstream out;
    write_circuit(out, circuit);
    const Circuit again = parse(out.str());
    ASSERT_EQ(again.name(), circuit.name()) << data;
    ASSERT_EQ(again.channels(), circuit.channels()) << data;
    ASSERT_EQ(again.grids(), circuit.grids()) << data;
    ASSERT_EQ(again.num_wires(), circuit.num_wires()) << data;
    for (WireId w = 0; w < circuit.num_wires(); ++w) {
      ASSERT_EQ(again.wire(w).pins, circuit.wire(w).pins) << data;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

struct BadInput {
  const char* label;
  const char* text;
  int line;
};

// Without this, gtest prints the param as raw bytes, pointers included, so
// the listed test names would change from run to run.
void PrintTo(const BadInput& bad, std::ostream* os) { *os << "line " << bad.line; }

class CircuitIoErrors : public ::testing::TestWithParam<BadInput> {};

TEST_P(CircuitIoErrors, RejectsWithLineNumber) {
  const BadInput& bad = GetParam();
  try {
    parse(bad.text);
    FAIL() << bad.label << ": expected CircuitParseError";
  } catch (const CircuitParseError& e) {
    EXPECT_EQ(e.line(), bad.line) << bad.label << ": " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CircuitIoErrors,
    ::testing::Values(
        BadInput{"no header", "wire 2\npin 0 0\npin 1 0\nend\n", 1},
        BadInput{"bad header", "circuit x\n", 1},
        BadInput{"bad dims", "circuit x 1 20\nend\n", 1},
        BadInput{"dup header", "circuit x 4 20\ncircuit y 4 20\nend\n", 2},
        BadInput{"pin outside wire", "circuit x 4 20\npin 0 0\nend\n", 2},
        BadInput{"pin out of range", "circuit x 4 20\nwire 2\npin 25 0\n", 3},
        BadInput{"pin row out of range", "circuit x 4 20\nwire 2\npin 5 3\n", 3},
        BadInput{"too many pins",
                 "circuit x 4 20\nwire 2\npin 0 0\npin 1 0\npin 2 0\nend\n", 5},
        BadInput{"too few pins",
                 "circuit x 4 20\nwire 3\npin 0 0\npin 1 0\nwire 2\n", 5},
        BadInput{"one-pin wire", "circuit x 4 20\nwire 1\npin 0 0\nend\n", 2},
        BadInput{"unknown keyword", "circuit x 4 20\nfrob 1\nend\n", 2},
        BadInput{"missing end", "circuit x 4 20\nwire 2\npin 0 0\npin 1 0\n", 4},
        BadInput{"last wire incomplete", "circuit x 4 20\nwire 2\npin 0 0\nend\n",
                 4},
        BadInput{"header trailing token", "circuit x 4 20 extra\nend\n", 1},
        BadInput{"wire trailing token",
                 "circuit x 4 20\nwire 2 7\npin 0 0\npin 1 0\nend\n", 2},
        BadInput{"pin trailing word",
                 "circuit x 4 20\nwire 2\npin 0 0 junk\npin 1 0\nend\n", 3},
        BadInput{"pin trailing numbers",
                 "circuit x 4 20\nwire 2\npin 5 1 9 9\npin 1 0\nend\n", 3},
        BadInput{"end trailing token", "circuit x 4 20\nend trailing\n", 2}),
    [](const ::testing::TestParamInfo<BadInput>& param_info) {
      std::string name = param_info.param.label;
      for (char& ch : name) {
        if (ch == ' ' || ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace locus
