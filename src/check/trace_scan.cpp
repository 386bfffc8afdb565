#include "check/trace_scan.hpp"

#include <algorithm>
#include <unordered_map>

#include "support/assert.hpp"

namespace locus {

TraceScanReport scan_trace_conflicts(const RefTrace& trace,
                                     TraceScanOptions options) {
  LOCUS_ASSERT(options.line_bytes > 0);
  TraceScanReport report;
  report.refs = static_cast<std::int64_t>(trace.size());

  // A line keeps its last accessor before the open reader group (the reads
  // of one write interval) and that group's least- and greatest-key readers,
  // found by key because the walk visits the reads stream by stream.
  struct LineState {
    std::int16_t last_proc = -1;
    MemOp last_op = MemOp::kRead;
    std::uint64_t group = 0;  ///< 1 + the write interval of the open group; 0 if none
    std::int16_t least_proc = -1;
    std::int16_t greatest_proc = -1;
    RefTrace::Key least{};
    RefTrace::Key greatest{};
    LineConflicts conflicts;
  };
  std::unordered_map<std::uint32_t, LineState> lines;
  lines.reserve(1024);
  const auto line_state = [&](std::uint32_t addr) -> LineState& {
    const auto line = addr / static_cast<std::uint32_t>(options.line_bytes);
    LineState& state = lines[line];
    state.conflicts.line = line;
    return state;
  };
  // The least-key reader pairs with the access before the group; the
  // greatest-key one is the access the line's next one pairs with.
  const auto close_group = [&](LineState& state) {
    if (state.group == 0) return;
    if (state.last_op == MemOp::kWrite && state.last_proc != state.least_proc) {
      ++state.conflicts.wr;
      ++report.wr;
    }
    state.last_proc = state.greatest_proc;
    state.last_op = MemOp::kRead;
    state.group = 0;
  };

  std::uint64_t interval = 0;  // writes visited so far
  trace.for_each_write_interval(
      [&](std::size_t proc, std::span<const std::uint32_t> addrs, RefTrace::Position at) {
        const auto p = static_cast<std::int16_t>(proc);
        for (std::uint32_t j = 0; j < addrs.size(); ++j) {
          LineState& state = line_state(addrs[j]);
          const RefTrace::Key key = RefTrace::Position{at.block, at.i + j}.key();
          if (state.group != interval + 1) {
            close_group(state);
            state.group = interval + 1;
            state.least = state.greatest = key;
            state.least_proc = state.greatest_proc = p;
          } else if (key < state.least) {
            state.least = key;
            state.least_proc = p;
          } else if (state.greatest < key) {
            state.greatest = key;
            state.greatest_proc = p;
          }
        }
      },
      [&](std::size_t proc, std::uint32_t addr, const RefTrace::Key&) {
        const auto p = static_cast<std::int16_t>(proc);
        LineState& state = line_state(addr);
        close_group(state);
        if (state.last_proc >= 0 && state.last_proc != p) {
          if (state.last_op == MemOp::kWrite) {
            ++state.conflicts.ww;
            ++report.ww;
          } else {
            ++state.conflicts.rw;
            ++report.rw;
          }
        }
        state.last_proc = p;
        state.last_op = MemOp::kWrite;
        ++interval;
      });

  report.lines_touched = static_cast<std::int64_t>(lines.size());
  std::vector<LineConflicts> conflicted;
  for (auto& [line, state] : lines) {
    close_group(state);
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

}  // namespace locus
