// Abstract access to cost-array state during routing.
//
// The same router core runs against three backings:
//   * a plain CostArray (sequential reference implementation),
//   * a per-processor view + delta array (message passing nodes),
//   * the single shared array wrapped in a reference tracer (shared memory).
// Implementations must return non-negative values from read() — drifted
// message passing views clamp — because route costs feed a minimization.
//
// Bulk span API: read_row() fills a caller buffer with one channel row's
// clamped values in a single virtual call, and read_rows() loads a whole
// row-major window in one call, so pricing kernels touch memory at span or
// window granularity instead of paying one dispatch per cell. The default
// implementations fall back to per-cell read(). No read has a side effect:
// CostArray devirtualizes both into plain clamp loops over its rows, the
// message passing ViewWithDelta forwards them to its private view, and the
// shared memory tracer forwards them to the shared array.
//
// Read tracing: the shared memory build records the cells a per-cell pricer
// would read (they are its reference trace), not the windows the router
// actually loads. read_tracer() hands the router a ReadTracer for that; the
// router writes each priced run of cells through it, as straight runs in
// pricing order. Every view but a capturing tracer returns nullptr.
//
// Span write: add_row() applies one commit or rip-up run of a channel row
// in one call. A WireRoute is stored as those runs: add_runs() writes them
// one add_row() each and price_runs() reads them one read_row() each. The
// default add_row() is the per-cell add() loop in x order, so a tracing
// view notes exactly the references a per-cell commit would.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.hpp"
#include "route/path.hpp"

namespace locus {

/// Receives the cell reads a per-cell pricer would make, one straight run at
/// a time.
class ReadTracer {
 public:
  virtual ~ReadTracer() = default;

  /// Notes reads of every cell from `from` to `to` inclusive, in that order.
  /// The two share a channel or a column.
  virtual void read_run(GridPoint from, GridPoint to) = 0;
};

class CostView {
 public:
  virtual ~CostView() = default;

  /// Current cost of routing through cell `p` (>= 0).
  virtual std::int32_t read(GridPoint p) = 0;

  /// Applies a commit (+1 per cell of a chosen path) or rip-up (-1).
  virtual void add(GridPoint p, std::int32_t delta) = 0;

  /// Adds `delta` to row `channel`, columns [x_lo, x_hi] inclusive.
  /// Default: per-cell add() loop, left to right.
  virtual void add_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                       std::int32_t delta) {
    for (std::int32_t x = x_lo; x <= x_hi; ++x) add(GridPoint{channel, x}, delta);
  }

  /// Bulk read of row `channel`, columns [x_lo, x_hi] inclusive, clamped
  /// like read(). Writes (x_hi - x_lo + 1) values into `span_out` (which
  /// must be at least that large). Default: per-cell read() loop.
  virtual void read_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                        std::span<std::int32_t> span_out) {
    for (std::int32_t x = x_lo; x <= x_hi; ++x) {
      span_out[static_cast<std::size_t>(x - x_lo)] = read(GridPoint{channel, x});
    }
  }

  /// Bulk read of the window [c_lo, c_hi] x [x_lo, x_hi] (both inclusive),
  /// row-major into `span_out` (size >= (c_hi-c_lo+1) * (x_hi-x_lo+1)),
  /// clamped like read(). One virtual call loads a whole candidate window.
  /// Default: one read_row() per row.
  virtual void read_rows(std::int32_t c_lo, std::int32_t c_hi, std::int32_t x_lo,
                         std::int32_t x_hi, std::span<std::int32_t> span_out) {
    const auto width = static_cast<std::size_t>(x_hi - x_lo + 1);
    for (std::int32_t c = c_lo; c <= c_hi; ++c) {
      read_row(c, x_lo, x_hi,
               span_out.subspan(static_cast<std::size_t>(c - c_lo) * width, width));
    }
  }

  /// Where the router writes the runs of cells it prices, or nullptr when
  /// nobody records them (every view but a capturing shared memory tracer).
  virtual ReadTracer* read_tracer() { return nullptr; }
};

/// Adds `delta` to every cell of `runs`: one add_row() per run.
inline void add_runs(CostView& view, std::span<const RowRun> runs, std::int32_t delta) {
  for (const RowRun& r : runs) view.add_row(r.channel, r.x_lo, r.x_hi, delta);
}

/// Sum of the clamped values of every cell of `runs`: one read_row() per run.
inline std::int64_t price_runs(CostView& view, std::span<const RowRun> runs) {
  thread_local std::vector<std::int32_t> row;
  std::int64_t sum = 0;
  for (const RowRun& r : runs) {
    row.resize(static_cast<std::size_t>(r.length()));
    view.read_row(r.channel, r.x_lo, r.x_hi, row);
    for (const std::int32_t v : row) sum += v;
  }
  return sum;
}

}  // namespace locus
