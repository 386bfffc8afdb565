// Route geometry: a routed connection is a connected chain of horizontal
// (within-channel) and vertical (channel-crossing) segments over the cost
// array. A wire's committed cells are stored as row runs, the horizontal
// stretches of channel rows that committing a route increments once each and
// ripping it up decrements (paper §3).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.hpp"

namespace locus {

/// One axis-aligned segment from `from` to `to` (inclusive); exactly one
/// coordinate differs (or none for a single-cell segment).
struct Segment {
  GridPoint from;
  GridPoint to;

  bool horizontal() const { return from.channel == to.channel; }
  std::int32_t length() const {
    return manhattan(from, to) + 1;  // cell count, inclusive
  }

  friend constexpr auto operator<=>(const Segment&, const Segment&) = default;
};

/// Columns [x_lo, x_hi] (inclusive) of one channel row: the unit a committed
/// wire is stored, priced and written in.
struct RowRun {
  std::int32_t channel;
  std::int32_t x_lo;
  std::int32_t x_hi;

  std::int32_t length() const { return x_hi - x_lo + 1; }

  friend constexpr auto operator<=>(const RowRun&, const RowRun&) = default;
};

/// A connected chain of segments: segment i+1 starts where segment i ends.
class Route {
 public:
  Route() = default;

  /// Appends a segment; enforces connectivity with the previous segment.
  void append(Segment seg);

  /// Removes all segments but keeps capacity — scratch-route reuse in the
  /// candidate-pricing hot loop.
  void clear() { segments_.clear(); }

  const std::vector<Segment>& segments() const { return segments_; }
  bool empty() const { return segments_.empty(); }

  friend bool operator==(const Route& a, const Route& b) {
    return a.segments_ == b.segments_;
  }

  /// Visits every covered cell exactly once in path order (junction cells
  /// shared between consecutive segments are visited once). Templated so
  /// the per-cell pricing and commit loops pay a direct call per cell
  /// instead of a std::function dispatch.
  template <typename Fn>
  void for_each_cell(Fn&& fn) const {
    for (std::size_t i = 0; i < segments_.size(); ++i) {
      const Segment& seg = segments_[i];
      GridPoint p = seg.from;
      // The junction cell was already emitted as the previous segment's `to`.
      bool skip_first = (i > 0);
      for (;;) {
        if (!skip_first) fn(p);
        skip_first = false;
        if (p == seg.to) break;
        p = step_toward(p, seg.to);
      }
    }
  }

 private:
  /// Steps from `a` toward `b` along the single differing axis.
  static GridPoint step_toward(GridPoint a, GridPoint b) {
    if (a.channel != b.channel) {
      a.channel += (b.channel > a.channel) ? 1 : -1;
    } else if (a.x != b.x) {
      a.x += (b.x > a.x) ? 1 : -1;
    }
    return a;
  }

  std::vector<Segment> segments_;
};

/// The union of the routes' cells as row runs, sorted by (channel, x_lo),
/// maximal and disjoint: two runs in one channel leave a gap of at least one
/// cell. Merges the per-pin-pair routes of a multi-pin wire so each wire
/// contributes at most one unit of cost per cell.
std::vector<RowRun> collect_row_runs(const std::vector<Route>& routes);

/// Whether `p` lies in one of `runs`, which must be sorted and disjoint (as
/// collect_row_runs returns them): a binary search on (channel, x_lo).
bool covers(std::span<const RowRun> runs, GridPoint p);

}  // namespace locus
