#include "circuit/io.hpp"

#include <fstream>
#include <sstream>
#include <vector>

namespace locus {

namespace {

/// Strips comments and surrounding whitespace; returns true if anything
/// remains.
bool clean_line(std::string& line) {
  if (auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
  auto first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) {
    line.clear();
    return false;
  }
  auto last = line.find_last_not_of(" \t\r");
  line = line.substr(first, last - first + 1);
  return true;
}

/// Throws if a line holds tokens after the fields its keyword takes.
void reject_trailing(std::istringstream& fields, int line_no) {
  std::string extra;
  if (fields >> extra) {
    throw CircuitParseError(line_no, "unexpected trailing token '" + extra + "'");
  }
}

}  // namespace

Circuit read_circuit(std::istream& in) {
  std::string line;
  int line_no = 0;

  std::string name;
  std::int32_t channels = 0;
  std::int32_t grids = 0;
  bool saw_header = false;
  bool saw_end = false;
  std::vector<Wire> wires;
  Wire* current = nullptr;
  std::int32_t pins_expected = 0;

  while (std::getline(in, line)) {
    ++line_no;
    if (!clean_line(line)) continue;
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;

    if (keyword == "circuit") {
      if (saw_header) throw CircuitParseError(line_no, "duplicate circuit header");
      if (!(fields >> name >> channels >> grids)) {
        throw CircuitParseError(line_no, "expected: circuit <name> <channels> <grids>");
      }
      reject_trailing(fields, line_no);
      if (channels < 2 || grids < 1) {
        throw CircuitParseError(line_no, "invalid circuit dimensions");
      }
      saw_header = true;
    } else if (keyword == "wire") {
      if (!saw_header) throw CircuitParseError(line_no, "wire before circuit header");
      if (current != nullptr && static_cast<std::int32_t>(current->pins.size()) !=
                                    pins_expected) {
        throw CircuitParseError(line_no, "previous wire has missing pins");
      }
      if (!(fields >> pins_expected) || pins_expected < 2) {
        throw CircuitParseError(line_no, "expected: wire <pin-count >= 2>");
      }
      reject_trailing(fields, line_no);
      wires.emplace_back();
      current = &wires.back();
    } else if (keyword == "pin") {
      if (current == nullptr) throw CircuitParseError(line_no, "pin outside a wire");
      Pin pin;
      if (!(fields >> pin.x >> pin.row)) {
        throw CircuitParseError(line_no, "expected: pin <x> <row>");
      }
      reject_trailing(fields, line_no);
      if (pin.x < 0 || pin.x >= grids || pin.row < 0 || pin.row >= channels - 1) {
        throw CircuitParseError(line_no, "pin coordinates out of range");
      }
      if (static_cast<std::int32_t>(current->pins.size()) >= pins_expected) {
        throw CircuitParseError(line_no, "more pins than declared");
      }
      current->pins.push_back(pin);
    } else if (keyword == "end") {
      if (!saw_header) throw CircuitParseError(line_no, "end before circuit header");
      reject_trailing(fields, line_no);
      saw_end = true;
      break;
    } else {
      throw CircuitParseError(line_no, "unknown keyword '" + keyword + "'");
    }
  }

  if (!saw_header) throw CircuitParseError(line_no, "missing circuit header");
  if (!saw_end) throw CircuitParseError(line_no, "missing 'end'");
  if (current != nullptr &&
      static_cast<std::int32_t>(current->pins.size()) != pins_expected) {
    throw CircuitParseError(line_no, "last wire has missing pins");
  }
  return Circuit(name, channels, grids, std::move(wires));
}

Circuit read_circuit_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open circuit file: " + path);
  return read_circuit(in);
}

void write_circuit(std::ostream& out, const Circuit& circuit) {
  out << "circuit " << circuit.name() << ' ' << circuit.channels() << ' '
      << circuit.grids() << '\n';
  for (const Wire& w : circuit.wires()) {
    out << "wire " << w.pins.size() << '\n';
    for (const Pin& p : w.pins) {
      out << "pin " << p.x << ' ' << p.row << '\n';
    }
  }
  out << "end\n";
}

void write_circuit_file(const std::string& path, const Circuit& circuit) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open circuit file for write: " + path);
  write_circuit(out, circuit);
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace locus
