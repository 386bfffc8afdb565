// The trace conflict scan as it stood before it walked by write intervals:
// every reference in global order (test::trace_refs), each paired with the
// previous access to its line. scan_trace_conflicts must match it field for
// field (test_check.cpp, CheckTraceScan.*).
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "check/trace_scan.hpp"
#include "shm/trace.hpp"
#include "test_util.hpp"

namespace locus::test {

inline TraceScanReport reference_scan_trace_conflicts(const RefTrace& trace,
                                                      TraceScanOptions options) {
  TraceScanReport report;
  report.refs = static_cast<std::int64_t>(trace.size());

  struct LineState {
    std::int16_t last_proc = -1;
    MemOp last_op = MemOp::kRead;
    LineConflicts conflicts;
  };
  std::unordered_map<std::uint32_t, LineState> lines;

  for (const MemRef& ref : trace_refs(trace)) {
    const auto line = ref.addr / static_cast<std::uint32_t>(options.line_bytes);
    LineState& state = lines[line];
    state.conflicts.line = line;
    if (state.last_proc >= 0 && state.last_proc != ref.proc) {
      const bool prev_write = state.last_op == MemOp::kWrite;
      const bool cur_write = ref.op == MemOp::kWrite;
      if (prev_write && cur_write) {
        ++state.conflicts.ww;
        ++report.ww;
      } else if (prev_write) {
        ++state.conflicts.wr;
        ++report.wr;
      } else if (cur_write) {
        ++state.conflicts.rw;
        ++report.rw;
      }
    }
    state.last_proc = ref.proc;
    state.last_op = ref.op;
  }

  report.lines_touched = static_cast<std::int64_t>(lines.size());
  std::vector<LineConflicts> conflicted;
  for (const auto& [line, state] : lines) {
    const std::int64_t total = state.conflicts.total();
    if (total == 0) continue;
    ++report.lines_with_conflicts;
    conflicted.push_back(state.conflicts);
    std::size_t bucket = 0;
    while ((std::int64_t{2} << bucket) <= total) ++bucket;
    if (report.histogram.size() <= bucket) report.histogram.resize(bucket + 1, 0);
    ++report.histogram[bucket];
  }
  std::sort(conflicted.begin(), conflicted.end(),
            [](const LineConflicts& a, const LineConflicts& b) {
              if (a.total() != b.total()) return a.total() > b.total();
              return a.line < b.line;
            });
  if (conflicted.size() > kTraceScanTopLines) conflicted.resize(kTraceScanTopLines);
  report.hottest = std::move(conflicted);
  return report;
}

}  // namespace locus::test
