// Binary serialization of shared-reference traces (.trc files).
//
// The Tango methodology is trace-driven: collect once, analyze many times.
// This format makes that workflow concrete — `examples/trace_tool` collects
// a trace to disk and replays it through any protocol/line-size without
// re-running the router.
//
// Format (version 2, the stream form; little-endian): the trace's blocks
// (RefTrace::Block, one per routed wire) in emission order, each with its
// references as the stream holds them, so neither side orders references.
//   magic    "LTRC"                    4 bytes
//   version  u32 = 2                   4 bytes
//   blocks   u64                       8 bytes
//   blocks x {
//     proc     u16, 0..32767           2 bytes
//     n        u32, at least 1         4 bytes
//     t0       i64                     8 bytes
//     duration i64, at least 0         8 bytes
//     addrs    n x u32                 4n bytes
//     ops      ceil(n/8) bytes         bit i%8 of byte i/8: reference i's
//                                      op (1 = write); bits past n are 0
//   }
//   nothing after the last block
// Reading the blocks back in file order gives them the same emission seqs,
// so every reference keeps its key (RefTrace::Key) and the trace its order.
#pragma once

#include <iosfwd>
#include <string>

#include "shm/trace.hpp"

namespace locus {

/// Writes `trace` in .trc format. Throws std::runtime_error on I/O failure.
void write_trace(std::ostream& out, const RefTrace& trace);
void write_trace_file(const std::string& path, const RefTrace& trace);

/// Reads a .trc stream into blocks built with open_block/push/close_block.
/// Throws std::runtime_error on malformed input, before any RefTrace check
/// could fire: bad magic, a version other than 2, a truncated block, a proc
/// outside 0..32767, an empty block, a negative duration, a block whose
/// t0 + duration or duration·(n+1) overflows 64 bits, a block whose first
/// stamp precedes its stream's last one, nonzero op bits past n, or bytes
/// after the declared block count.
RefTrace read_trace(std::istream& in);
RefTrace read_trace_file(const std::string& path);

}  // namespace locus
