#include "route/path.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace locus {

void Route::append(Segment seg) {
  LOCUS_ASSERT_MSG(seg.from.channel == seg.to.channel || seg.from.x == seg.to.x,
                   "segment must be axis-aligned");
  if (!segments_.empty()) {
    LOCUS_ASSERT_MSG(segments_.back().to == seg.from,
                     "segments must chain end-to-start");
  }
  segments_.push_back(seg);
}

std::vector<RowRun> collect_row_runs(const std::vector<Route>& routes) {
  // Interval-union sweep: each route is at most a handful of axis-aligned
  // segments, so per channel there are only a few x-intervals. Merging
  // those directly never materializes a covered cell.
  struct Interval {
    std::int32_t lo;
    std::int32_t hi;
  };
  struct Scratch {
    std::vector<std::vector<Interval>> buckets;  ///< per channel, kept empty
    std::vector<std::int32_t> used;              ///< channels with intervals
  };
  thread_local Scratch s;

  const auto add_interval = [&](std::int32_t c, std::int32_t lo, std::int32_t hi) {
    const auto cz = static_cast<std::size_t>(c);
    if (cz >= s.buckets.size()) s.buckets.resize(cz + 1);
    std::vector<Interval>& b = s.buckets[cz];
    if (b.empty()) s.used.push_back(c);
    b.push_back(Interval{lo, hi});
  };

  for (const Route& r : routes) {
    for (const Segment& seg : r.segments()) {
      if (seg.horizontal()) {
        const auto [lo, hi] = std::minmax(seg.from.x, seg.to.x);
        add_interval(seg.from.channel, lo, hi);
      } else {
        const auto [clo, chi] = std::minmax(seg.from.channel, seg.to.channel);
        for (std::int32_t c = clo; c <= chi; ++c) {
          add_interval(c, seg.from.x, seg.from.x);
        }
      }
    }
  }

  std::sort(s.used.begin(), s.used.end());
  std::vector<RowRun> runs;
  runs.reserve(s.used.size());  // most channels hold one run
  for (const std::int32_t c : s.used) {
    std::vector<Interval>& b = s.buckets[static_cast<std::size_t>(c)];
    // Insertion sort by lo: a channel rarely holds more than a few intervals.
    for (std::size_t i = 1; i < b.size(); ++i) {
      const Interval v = b[i];
      std::size_t j = i;
      while (j > 0 && b[j - 1].lo > v.lo) {
        b[j] = b[j - 1];
        --j;
      }
      b[j] = v;
    }
    // Sweep, coalescing overlapping or touching intervals into one run.
    std::size_t i = 0;
    while (i < b.size()) {
      std::int32_t lo = b[i].lo;
      std::int32_t hi = b[i].hi;
      ++i;
      while (i < b.size() && b[i].lo <= hi + 1) {
        hi = std::max(hi, b[i].hi);
        ++i;
      }
      runs.push_back(RowRun{c, lo, hi});
    }
    b.clear();
  }
  s.used.clear();
  return runs;
}

bool covers(std::span<const RowRun> runs, GridPoint p) {
  // The last run starting at or before p in (channel, x_lo) order is the
  // only one that can hold it.
  const auto after = std::upper_bound(
      runs.begin(), runs.end(), p, [](GridPoint q, const RowRun& r) {
        return q.channel != r.channel ? q.channel < r.channel : q.x < r.x_lo;
      });
  if (after == runs.begin()) return false;
  const RowRun& r = *(after - 1);
  return r.channel == p.channel && p.x <= r.x_hi;
}

}  // namespace locus
