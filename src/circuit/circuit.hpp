// Standard cell circuit model.
//
// A standard cell circuit is a stack of cell rows separated by horizontal
// routing channels: with C channels there are C-1 cell rows, channel 0 above
// the top row and channel C-1 below the bottom row. The horizontal dimension
// is quantized into G routing grids. A *wire* (net) connects two or more
// *pins*; a pin sits on a cell in some row at some grid column and can enter
// either the channel above its row (index == row) or the channel below
// (index == row + 1) — this vertical freedom is one of the router's choices.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/partition.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"

namespace locus {

using WireId = std::int32_t;

/// A pin on a standard cell.
struct Pin {
  std::int32_t x = 0;    ///< routing grid column, in [0, grids)
  std::int32_t row = 0;  ///< cell row, in [0, channels - 1)

  /// Channel directly above the pin's cell row.
  std::int32_t channel_above() const { return row; }
  /// Channel directly below the pin's cell row.
  std::int32_t channel_below() const { return row + 1; }

  friend constexpr auto operator<=>(const Pin&, const Pin&) = default;
};

/// A net to be routed. Pins are kept sorted by (x, row); the router walks
/// them left to right decomposing the wire into two-point segments.
struct Wire {
  WireId id = -1;
  std::vector<Pin> pins;

  /// Bounding box over pin positions, in cost-array coordinates. The channel
  /// extent covers both channel options of each pin.
  Rect pin_bbox() const;

  /// Estimated wirelength: sum of Manhattan distances between x-adjacent
  /// pins (grid units; vertical hops measured in channels).
  std::int64_t length_cost() const;

  /// The "cost measure ... based on its length" that the ThresholdCost wire
  /// assignment heuristic compares against (paper §4.2): the number of cost
  /// array cells in the wire's pin bounding box. Short local wires fall
  /// under ThresholdCost = 30; long multi-channel wires exceed 1000, so the
  /// paper's 30 / 1000 / infinity settings carve distinct assignment mixes.
  std::int64_t assignment_cost() const { return pin_bbox().area(); }
};

/// An immutable routed-circuit description: dimensions plus the netlist.
class Circuit {
 public:
  Circuit(std::string name, std::int32_t channels, std::int32_t grids,
          std::vector<Wire> wires);

  const std::string& name() const { return name_; }
  std::int32_t channels() const { return channels_; }
  std::int32_t grids() const { return grids_; }
  std::int32_t num_cell_rows() const { return channels_ - 1; }

  const std::vector<Wire>& wires() const { return wires_; }
  const Wire& wire(WireId id) const;
  std::int32_t num_wires() const { return static_cast<std::int32_t>(wires_.size()); }

  /// Full cost-array rectangle.
  Rect bounds() const { return Rect::of(0, channels_ - 1, 0, grids_ - 1); }

 private:
  std::string name_;
  std::int32_t channels_;
  std::int32_t grids_;
  std::vector<Wire> wires_;
};

/// The processor mesh for `procs` processors over `circuit`'s cost array.
/// Throws std::invalid_argument when it does not fit: a partition needs at
/// least one channel per mesh row and one grid per mesh column. Tools call
/// it on a user's --procs before building a Partition, which would abort.
MeshShape fitted_mesh(const Circuit& circuit, std::int32_t procs);

}  // namespace locus
