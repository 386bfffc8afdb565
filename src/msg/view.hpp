// The message passing processors' cost view: reads go straight to the
// node's (possibly drifted) private TiledCostArray, writes are mirrored into
// the delta array that feeds SendRmtData / ReqLocData updates. Used by the
// simulated node program (msg/node.hpp); tested directly by the explorer
// property matrix.
#pragma once

#include <cstdint>
#include <span>

#include "grid/delta_array.hpp"
#include "grid/tiled_cost_array.hpp"
#include "route/cost_view.hpp"

namespace locus {

/// CostView that mirrors every write into the delta array. Reads go
/// straight to the (possibly drifted) private view, so both bulk span
/// reads forward to the tiled array's fast path — clamping included. The
/// view is held by its concrete type, so these forwards are direct calls.
class ViewWithDelta final : public CostView {
 public:
  ViewWithDelta(TiledCostArray& view, DeltaArray& delta) : view_(view), delta_(delta) {}
  std::int32_t read(GridPoint p) override { return view_.read(p); }
  void add(GridPoint p, std::int32_t d) override {
    view_.add(p, d);
    delta_.add(p, d);
  }
  void read_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                std::span<std::int32_t> span_out) override {
    view_.read_row(channel, x_lo, x_hi, span_out);
  }
  void read_rows(std::int32_t c_lo, std::int32_t c_hi, std::int32_t x_lo,
                 std::int32_t x_hi, std::span<std::int32_t> span_out) override {
    view_.read_rows(c_lo, c_hi, x_lo, x_hi, span_out);
  }
  bool supports_bulk_read() const override { return true; }

 private:
  TiledCostArray& view_;
  DeltaArray& delta_;
};

}  // namespace locus
