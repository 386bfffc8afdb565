// Binary serialization of shared-reference traces (.trc files).
//
// The Tango methodology is trace-driven: collect once, analyze many times.
// This format makes that workflow concrete — `examples/trace_tool` collects
// a trace to disk and replays it through any protocol/line-size without
// re-running the router.
//
// Format (little-endian):
//   magic   "LTRC"                  4 bytes
//   version u32 (currently 1)       4 bytes
//   count   u64                     8 bytes
//   records count x { time i64, addr u32, proc i16, op u8, pad u8 = 0 }
//   nothing after the last record
#pragma once

#include <iosfwd>
#include <string>

#include "shm/trace.hpp"

namespace locus {

/// Writes `trace` in .trc format. Throws std::runtime_error on I/O failure.
void write_trace(std::ostream& out, const RefTrace& trace);
void write_trace_file(const std::string& path, const RefTrace& trace);

/// Reads a .trc stream. Throws std::runtime_error on malformed input: bad
/// magic or version, a truncated record, an op other than read/write, a
/// nonzero pad byte, a negative proc, a timestamp earlier than the record
/// before it (a trace is globally time-ordered), or bytes after the
/// declared record count. The file keeps no wire boundaries, so
/// the result holds one block per reference.
RefTrace read_trace(std::istream& in);
RefTrace read_trace_file(const std::string& path);

}  // namespace locus
