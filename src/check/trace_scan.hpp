// Trace invariant scanner for the shared memory router.
//
// The shm implementation follows the paper in running *unlocked*: all
// processors hit one cost array with no mutual exclusion, accepting the
// quality noise. This scanner counts, per cache line of the recorded
// reference trace (shm/trace.hpp), every pair of accesses consecutive in the
// trace's time order by *different* processors where at least one is a
// write — the unsynchronized write-write / write-read / read-write sharing
// the design tolerates (the race model of Butelle and Coti, PAPERS.md). The
// output is a histogram over lines (log2 buckets of per-line conflict
// counts) plus the hottest lines, quantifying how much silent contention a
// run actually produced and where it concentrates.
//
// The scan walks the trace by write intervals (RefTrace::
// for_each_write_interval), not in full time order: between two writes a
// line sees only reads, which never conflict with each other, so per line
// and interval only the least-key reader (paired with the access before it)
// and the greatest-key reader (paired with the access after it) count, and
// the line keeps just those two and its last accessor before the interval.
#pragma once

#include <cstdint>
#include <vector>

#include "shm/trace.hpp"

namespace locus {

/// Hottest lines a scan reports individually.
inline constexpr std::size_t kTraceScanTopLines = 8;

struct TraceScanOptions {
  std::int32_t line_bytes = 16;  ///< coherence line size the scan models
};

/// Conflict counts of one cache line.
struct LineConflicts {
  std::uint32_t line = 0;  ///< line index (byte address / line_bytes)
  std::int64_t ww = 0;     ///< write followed by another proc's write
  std::int64_t wr = 0;     ///< write followed by another proc's read
  std::int64_t rw = 0;     ///< read followed by another proc's write

  std::int64_t total() const { return ww + wr + rw; }
};

struct TraceScanReport {
  std::int64_t refs = 0;
  std::int64_t lines_touched = 0;
  std::int64_t lines_with_conflicts = 0;
  std::int64_t ww = 0;
  std::int64_t wr = 0;
  std::int64_t rw = 0;

  /// histogram[b] = number of lines whose conflict count c satisfies
  /// 2^b <= c < 2^(b+1) (bucket 0 holds c == 1).
  std::vector<std::int64_t> histogram;
  /// The kTraceScanTopLines lines with the most conflicts, descending.
  std::vector<LineConflicts> hottest;

  std::int64_t conflicts() const { return ww + wr + rw; }
};

/// Scans `trace` against the given line size; the counts are those of its
/// time order (the order the coherence simulator replays). Deterministic.
TraceScanReport scan_trace_conflicts(const RefTrace& trace,
                                     TraceScanOptions options = {});

}  // namespace locus
