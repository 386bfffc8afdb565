#include "route/explorer.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <span>
#include <vector>

#include "support/assert.hpp"

namespace locus {

namespace {

/// Channel a pin enters when heading for channel `target`: the nearer of the
/// channels above/below its cell row.
std::int32_t entry_channel(const Pin& pin, std::int32_t target) {
  return target <= pin.row ? pin.channel_above() : pin.channel_below();
}

/// Shared shape construction for both candidate families: drop from pin `a`
/// into channel c1, run horizontally (jogging into c2 at column xj when
/// c1 != c2), and rise into pin `b`'s entry channel. c1 == c2 yields the
/// single-channel shape (xj ignored). Calls fn(from, to) per segment, in
/// path order.
template <typename Fn>
void for_each_segment(const Pin& a, const Pin& b, std::int32_t c1, std::int32_t c2,
                      std::int32_t xj, Fn&& fn) {
  const std::int32_t ea = entry_channel(a, c1);
  const std::int32_t eb = entry_channel(b, c2);
  fn(GridPoint{ea, a.x}, GridPoint{c1, a.x});
  if (c1 == c2) {
    fn(GridPoint{c1, a.x}, GridPoint{c1, b.x});
  } else {
    fn(GridPoint{c1, a.x}, GridPoint{c1, xj});
    fn(GridPoint{c1, xj}, GridPoint{c2, xj});
    fn(GridPoint{c2, xj}, GridPoint{c2, b.x});
  }
  fn(GridPoint{c2, b.x}, GridPoint{eb, b.x});
}

/// Builds the candidate into a caller-owned scratch route, so routing the
/// winner performs no per-candidate heap allocation.
void build_candidate(Route& route, const Pin& a, const Pin& b, std::int32_t c1,
                     std::int32_t c2, std::int32_t xj) {
  route.clear();
  for_each_segment(a, b, c1, c2, xj,
                   [&](GridPoint from, GridPoint to) { route.append(Segment{from, to}); });
}

/// The candidate window the explorer enumerates over. All candidate cells lie
/// inside [c_lo, c_hi] x [x_lo, x_hi]: entry channels sit between the pins'
/// own channels (contained in the unclamped range), horizontal runs between
/// the pin columns, jogs strictly inside them.
struct CandidateWindow {
  std::int32_t c_lo, c_hi;  ///< channel range (pins' range + slack, clamped)
  std::int32_t x_lo, x_hi;  ///< column range (pin columns, inclusive)
  std::int32_t stride = 0;  ///< jog sampling stride; 0 when Z-routes are off
};

CandidateWindow candidate_window(const Pin& a, const Pin& b, std::int32_t channels,
                                 const ExplorerParams& params) {
  const std::int32_t pin_lo = std::min({a.channel_above(), b.channel_above()});
  const std::int32_t pin_hi = std::max({a.channel_below(), b.channel_below()});
  CandidateWindow w;
  w.c_lo = std::max<std::int32_t>(0, pin_lo - params.channel_slack);
  w.c_hi = std::min<std::int32_t>(channels - 1, pin_hi + params.channel_slack);
  w.x_lo = std::min(a.x, b.x);
  w.x_hi = std::max(a.x, b.x);
  // Z candidates: only meaningful when the pins are in different columns.
  if (w.x_hi - w.x_lo >= 2) {
    const std::int32_t span = w.x_hi - w.x_lo;
    w.stride = std::max<std::int32_t>(
        1, span / std::max<std::int32_t>(1, params.jog_samples));
  }
  return w;
}

/// Reusable buffers for the pricing loops. One instance per thread: the
/// run_indexed workers price concurrently, and capacity persists across calls
/// so steady-state pricing allocates nothing. Everything after `win` is
/// structure-of-arrays: per-channel rows of contiguous lanes the pricing
/// loops stream over.
struct PricingScratch {
  std::vector<std::int32_t> win;   ///< clamped window values (C x W)
  std::vector<std::int64_t> rowp;  ///< per-channel prefix sums (C x (W+1))
  std::vector<std::int64_t> colt;  ///< transposed column prefix sums ((C+1) x W)
  // Per-channel Z-candidate constants (C entries each): everything about a
  // pair (c1, c2) that does not depend on the jog column folds into
  // hconst[c1] + tconst[c2].
  std::vector<std::int64_t> hconst, tconst;
  std::vector<std::int32_t> hcells, tcells;  ///< entry-drop lengths, for stats
  // Jog-sample tables, gathered once per window at the stride-sampled
  // columns (m samples per row, in enumeration order):
  std::vector<std::int64_t> fwd;  ///< C rows: rowp[c][sample]
  std::vector<std::int64_t> rev;  ///< C rows: -rowp[c][sample+1]
  std::vector<std::int64_t> jog;  ///< C+1 rows: colt[ci][sample]
};

thread_local PricingScratch g_scratch;

/// Loads the window once, then prices every candidate in O(1) as a sum of
/// segment spans minus junction-cell corrections — the exact decomposition
/// for_each_cell implies (each segment after the first skips its first
/// cell, which is the previous segment's last).
///
/// The Z tail is evaluated in whole batches per channel pair: with the jog
/// columns sampled at a fixed stride, a candidate's cost decomposes into a
/// pair constant plus four SoA lanes indexed by the sample —
///   head(c1)[k] + tail(c2)[k] + colt[hi+1][k] - colt[lo][k]
/// — which one running (min, flat index) scan minimizes, keeping the first
/// candidate in enumeration order on ties. All math is int64 addition, so
/// batch and per-candidate orders are bit-identical; only *independent*
/// candidates are reordered.
ExploreResult explore_window(const Pin& a, const Pin& b, CostView& view,
                             const ExplorerParams& params, const CandidateWindow& w) {
  const std::int32_t C = w.c_hi - w.c_lo + 1;
  const std::int32_t W = w.x_hi - w.x_lo + 1;
  const bool squared = params.congestion_power == 2;
  const auto Wz = static_cast<std::size_t>(W);

  PricingScratch& s = g_scratch;
  s.win.resize(static_cast<std::size_t>(C) * Wz);
  s.rowp.resize(static_cast<std::size_t>(C) * (Wz + 1));
  s.colt.resize(static_cast<std::size_t>(C + 1) * Wz);

  // Window load: one virtual call for the whole window, then one fused
  // pass per row producing the row prefix sums and the next transposed
  // column-prefix row (colt[ci][xi] = sum of priced rows 0..ci-1 at xi, row 0
  // zero — W independent lanes per step). The priced values are never stored:
  // pv[c][x] = rowp[c][x+1] - rowp[c][x] wherever one is needed.
  view.read_rows(w.c_lo, w.c_hi, w.x_lo, w.x_hi, s.win);
  std::fill(s.colt.begin(), s.colt.begin() + static_cast<std::ptrdiff_t>(Wz), 0);
  for (std::int32_t ci = 0; ci < C; ++ci) {
    const std::int32_t* in = s.win.data() + static_cast<std::size_t>(ci) * Wz;
    std::int64_t* rp = s.rowp.data() + static_cast<std::size_t>(ci) * (Wz + 1);
    const std::int64_t* colt_in = s.colt.data() + static_cast<std::size_t>(ci) * Wz;
    std::int64_t* colt_out = s.colt.data() + static_cast<std::size_t>(ci + 1) * Wz;
    std::int64_t acc = 0;
    rp[0] = 0;
    for (std::size_t xi = 0; xi < Wz; ++xi) {
      const std::int64_t v = in[xi];
      const std::int64_t p = squared ? v * v : v;
      colt_out[xi] = colt_in[xi] + p;
      acc += p;
      rp[xi + 1] = acc;
    }
  }

  // O(1) lookups over the window (coordinates in grid space, inclusive).
  const auto pv_at = [&](std::int32_t c, std::int32_t x) {
    const std::int64_t* rp =
        s.rowp.data() + static_cast<std::size_t>(c - w.c_lo) * (Wz + 1);
    const std::size_t xi = static_cast<std::size_t>(x - w.x_lo);
    return rp[xi + 1] - rp[xi];
  };
  const auto col_sum = [&](std::int32_t x, std::int32_t ca, std::int32_t cb) {
    const auto [lo, hi] = std::minmax(ca, cb);
    const std::size_t xi = static_cast<std::size_t>(x - w.x_lo);
    return s.colt[static_cast<std::size_t>(hi - w.c_lo + 1) * Wz + xi] -
           s.colt[static_cast<std::size_t>(lo - w.c_lo) * Wz + xi];
  };
  const auto vdist = [](std::int32_t u, std::int32_t v) { return std::abs(u - v); };

  ExploreResult best;
  std::int64_t best_cost = 0;
  std::int32_t best_c1 = 0, best_c2 = 0, best_xj = 0;
  bool have_best = false;

  // Per-channel pass: evaluates the single-channel candidate for every c
  // and precomputes the Z-pair constants. With pins at the window edges,
  // the head run (a.x -> xj) takes the fwd lane when a is the left pin and
  // the rev lane plus the full-row sum when a is the right pin (the row sum
  // is constant per channel, so it folds into the pair constant); the tail
  // run mirrors it.
  const bool a_is_left = a.x <= b.x;
  s.hconst.resize(static_cast<std::size_t>(C));
  s.tconst.resize(static_cast<std::size_t>(C));
  s.hcells.resize(static_cast<std::size_t>(C));
  s.tcells.resize(static_cast<std::size_t>(C));
  for (std::int32_t c = w.c_lo; c <= w.c_hi; ++c) {
    const auto ci = static_cast<std::size_t>(c - w.c_lo);
    const std::int32_t ea = entry_channel(a, c);
    const std::int32_t eb = entry_channel(b, c);
    const std::int64_t head = col_sum(a.x, ea, c) - pv_at(c, a.x);
    const std::int64_t tail = col_sum(b.x, c, eb) - pv_at(c, b.x);
    const std::int64_t row_total = s.rowp[ci * (Wz + 1) + Wz];

    const std::int64_t cost = head + row_total + tail;
    best.stats.cells_probed += (vdist(ea, c) + 1) + W + (vdist(eb, c) + 1) - 2;
    ++best.stats.routes_evaluated;
    if (!have_best || cost < best_cost) {
      best_cost = cost;
      best_c1 = c;
      best_c2 = c;
      best_xj = 0;
      have_best = true;
    }

    s.hconst[ci] = head + (a_is_left ? 0 : row_total);
    s.tconst[ci] = tail + (a_is_left ? row_total : 0);
    s.hcells[ci] = vdist(ea, c);
    s.tcells[ci] = vdist(eb, c);
  }

  // Z candidates, batched per channel pair. The sampled jog columns are
  // xj = x_lo + (k+1)*stride for k in [0, m): all strictly inside
  // (x_lo, x_hi), so they never collide with the pin columns (which sit at
  // the window edges) and never duplicate a single-channel shape.
  const std::int32_t span = w.x_hi - w.x_lo;
  const std::int32_t m = w.stride > 0 ? (span - 1) / w.stride : 0;
  if (m > 0 && C >= 2) {
    const auto mz = static_cast<std::size_t>(m);
    s.fwd.resize(static_cast<std::size_t>(C) * mz);
    s.rev.resize(static_cast<std::size_t>(C) * mz);
    s.jog.resize(static_cast<std::size_t>(C + 1) * mz);

    // Gather the strided samples into dense SoA lanes. For a channel c with
    // window row rp = rowp[c] and sample column xi, the junction-corrected
    // run sums collapse to plain prefix entries (pv[xi] = rp[xi+1] - rp[xi]):
    //   fwd[c][k] = rp[xi+1] - pv[xi] = rp[xi]    (run x_lo -> xj, junction
    //                                              cell folded out)
    //   rev[c][k] = -(rp[xi] + pv[xi]) = -rp[xi+1] (run xj -> x_hi, minus
    //                                              rp[W] which folds into the
    //                                              pair constant)
    for (std::int32_t ci = 0; ci < C; ++ci) {
      const std::int64_t* rp = s.rowp.data() + static_cast<std::size_t>(ci) * (Wz + 1);
      std::int64_t* f = s.fwd.data() + static_cast<std::size_t>(ci) * mz;
      std::int64_t* r = s.rev.data() + static_cast<std::size_t>(ci) * mz;
      for (std::int32_t k = 0; k < m; ++k) {
        const std::int32_t xi = (k + 1) * w.stride;
        f[k] = rp[xi];
        r[k] = -rp[xi + 1];
      }
    }
    for (std::int32_t ci = 0; ci <= C; ++ci) {
      const std::int64_t* ct = s.colt.data() + static_cast<std::size_t>(ci) * Wz;
      std::int64_t* j = s.jog.data() + static_cast<std::size_t>(ci) * mz;
      for (std::int32_t k = 0; k < m; ++k) {
        j[k] = ct[(k + 1) * w.stride];
      }
    }

    // One fused pass: every pair's whole batch folds into one running
    // (min, flat index); flat candidate indices follow enumeration order
    // (c1 asc, c2 asc, xj asc), so the strict compare keeps the first
    // candidate in enumeration order on ties.
    const std::int64_t* hbase = a_is_left ? s.fwd.data() : s.rev.data();
    const std::int64_t* tbase = a_is_left ? s.rev.data() : s.fwd.data();
    std::int64_t zmin = std::numeric_limits<std::int64_t>::max();
    std::int64_t zidx = 0;
    std::int64_t flat = 0;
    std::int64_t probe_cells = 0;  // sum over pairs of the per-sample cells
    for (std::int32_t ci1 = 0; ci1 < C; ++ci1) {
      const std::int64_t* hvec = hbase + static_cast<std::size_t>(ci1) * mz;
      const std::int64_t h = s.hconst[static_cast<std::size_t>(ci1)];
      for (std::int32_t ci2 = 0; ci2 < C; ++ci2) {
        if (ci1 == ci2) continue;  // equals the single-channel shape
        const std::int64_t base = h + s.tconst[static_cast<std::size_t>(ci2)];
        const std::int64_t* tvec = tbase + static_cast<std::size_t>(ci2) * mz;
        const std::int64_t* jhi =
            s.jog.data() + (static_cast<std::size_t>(std::max(ci1, ci2)) + 1) * mz;
        const std::int64_t* jlo =
            s.jog.data() + static_cast<std::size_t>(std::min(ci1, ci2)) * mz;
        for (std::size_t k = 0; k < mz; ++k) {
          const std::int64_t cost = base + hvec[k] + tvec[k] + jhi[k] - jlo[k];
          if (cost < zmin) {
            zmin = cost;
            zidx = flat + static_cast<std::int64_t>(k);
          }
        }
        flat += m;
        probe_cells += s.hcells[static_cast<std::size_t>(ci1)] +
                       s.tcells[static_cast<std::size_t>(ci2)] + vdist(ci1, ci2);
      }
    }
    best.stats.routes_evaluated += flat;
    best.stats.cells_probed +=
        static_cast<std::int64_t>(m) * probe_cells + flat * (span + 1);

    if (!have_best || zmin < best_cost) {
      const std::int64_t pair_seq = zidx / m;
      const auto k = static_cast<std::int32_t>(zidx % m);
      const auto ci1 = static_cast<std::int32_t>(pair_seq / (C - 1));
      const auto r = static_cast<std::int32_t>(pair_seq % (C - 1));
      best_cost = zmin;
      best_c1 = w.c_lo + ci1;
      best_c2 = w.c_lo + (r < ci1 ? r : r + 1);
      best_xj = w.x_lo + (k + 1) * w.stride;
      have_best = true;
    }
  }

  LOCUS_ASSERT(have_best);
  build_candidate(best.route, a, b, best_c1, best_c2, best_xj);
  best.cost = best_cost;
  return best;
}

/// The cell after `from` on the straight run to `to` (from != to).
GridPoint step_toward(GridPoint from, GridPoint to) {
  if (from.channel != to.channel) {
    from.channel += to.channel > from.channel ? 1 : -1;
  } else {
    from.x += to.x > from.x ? 1 : -1;
  }
  return from;
}

/// Writes the cells a per-cell pricer reads, candidate by candidate in
/// enumeration order (single-channel for c ascending, then Z for
/// (c1, c2, xj) ascending), as one run per segment in for_each_cell order:
/// a segment after the first starts past its junction cell, the previous
/// segment's last, and writes nothing when that was its only cell.
void trace_candidates(ReadTracer& tracer, const Pin& a, const Pin& b,
                      const CandidateWindow& w) {
  const auto trace = [&](std::int32_t c1, std::int32_t c2, std::int32_t xj) {
    bool first = true;
    for_each_segment(a, b, c1, c2, xj, [&](GridPoint from, GridPoint to) {
      if (first) {
        first = false;
      } else if (from == to) {
        return;
      } else {
        from = step_toward(from, to);
      }
      tracer.read_run(from, to);
    });
  };
  for (std::int32_t c = w.c_lo; c <= w.c_hi; ++c) trace(c, c, 0);
  if (w.stride == 0) return;
  for (std::int32_t c1 = w.c_lo; c1 <= w.c_hi; ++c1) {
    for (std::int32_t c2 = w.c_lo; c2 <= w.c_hi; ++c2) {
      if (c1 == c2) continue;
      for (std::int32_t xj = w.x_lo + w.stride; xj < w.x_hi; xj += w.stride) {
        trace(c1, c2, xj);
      }
    }
  }
}

}  // namespace

ExploreResult explore_connection(const Pin& a, const Pin& b, std::int32_t channels,
                                 CostView& view, const ExplorerParams& params) {
  LOCUS_ASSERT(channels >= 2);
  const CandidateWindow w = candidate_window(a, b, channels, params);
  if (ReadTracer* const tracer = view.read_tracer()) trace_candidates(*tracer, a, b, w);
  return explore_window(a, b, view, params, w);
}

}  // namespace locus
