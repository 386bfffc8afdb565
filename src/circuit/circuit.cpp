#include "circuit/circuit.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "support/assert.hpp"

namespace locus {

Rect Wire::pin_bbox() const {
  Rect box;
  for (const Pin& p : pins) {
    box.expand(GridPoint{p.channel_above(), p.x});
    box.expand(GridPoint{p.channel_below(), p.x});
  }
  return box;
}

std::int64_t Wire::length_cost() const {
  std::int64_t total = 0;
  for (std::size_t i = 1; i < pins.size(); ++i) {
    total += std::abs(pins[i].x - pins[i - 1].x) +
             std::abs(pins[i].row - pins[i - 1].row);
  }
  return total;
}

Circuit::Circuit(std::string name, std::int32_t channels, std::int32_t grids,
                 std::vector<Wire> wires)
    : name_(std::move(name)), channels_(channels), grids_(grids),
      wires_(std::move(wires)) {
  LOCUS_ASSERT_MSG(channels_ >= 2, "need at least two channels (one cell row)");
  LOCUS_ASSERT_MSG(grids_ >= 1, "need at least one routing grid");
  for (std::size_t i = 0; i < wires_.size(); ++i) {
    Wire& w = wires_[i];
    w.id = static_cast<WireId>(i);
    LOCUS_ASSERT_MSG(w.pins.size() >= 2, "wires must have at least two pins");
    std::sort(w.pins.begin(), w.pins.end(),
              [](const Pin& a, const Pin& b) {
                return a.x != b.x ? a.x < b.x : a.row < b.row;
              });
    for (const Pin& p : w.pins) {
      LOCUS_ASSERT_MSG(p.x >= 0 && p.x < grids_, "pin grid out of range");
      LOCUS_ASSERT_MSG(p.row >= 0 && p.row < num_cell_rows(), "pin row out of range");
    }
  }
}

const Wire& Circuit::wire(WireId id) const {
  LOCUS_ASSERT(id >= 0 && id < num_wires());
  return wires_[static_cast<std::size_t>(id)];
}

MeshShape fitted_mesh(const Circuit& circuit, std::int32_t procs) {
  const MeshShape mesh = MeshShape::for_procs(procs);
  if (mesh.rows > circuit.channels() || mesh.cols > circuit.grids()) {
    throw std::invalid_argument(
        "--procs=" + std::to_string(procs) + " needs a " + std::to_string(mesh.rows) +
        "x" + std::to_string(mesh.cols) + " mesh, more than " + circuit.name() + "'s " +
        std::to_string(circuit.channels()) + " channels x " +
        std::to_string(circuit.grids()) + " grids");
  }
  return mesh;
}

}  // namespace locus
