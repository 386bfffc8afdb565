#include "shm/trace_io.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

namespace locus {

namespace {

constexpr std::array<char, 4> kMagic = {'L', 'T', 'R', 'C'};
constexpr std::uint32_t kVersion = 1;

void put_u32(std::ostream& out, std::uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.write(buf, 4);
}

void put_u64(std::ostream& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.write(buf, 8);
}

std::uint32_t get_u32(std::istream& in) {
  unsigned char buf[4];
  in.read(reinterpret_cast<char*>(buf), 4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | buf[i];
  return v;
}

std::uint64_t get_u64(std::istream& in) {
  unsigned char buf[8];
  in.read(reinterpret_cast<char*>(buf), 8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | buf[i];
  return v;
}

}  // namespace

void write_trace(std::ostream& out, const RefTrace& trace) {
  out.write(kMagic.data(), kMagic.size());
  put_u32(out, kVersion);
  put_u64(out, trace.size());
  trace.for_each([&](const MemRef& ref) {
    put_u64(out, static_cast<std::uint64_t>(ref.time));
    put_u32(out, ref.addr);
    char tail[4] = {static_cast<char>(ref.proc & 0xFF),
                    static_cast<char>((ref.proc >> 8) & 0xFF),
                    static_cast<char>(ref.op), 0};
    out.write(tail, 4);
  });
  if (!out) throw std::runtime_error("trace write failed");
}

void write_trace_file(const std::string& path, const RefTrace& trace) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open trace file for write: " + path);
  write_trace(out, trace);
}

RefTrace read_trace(std::istream& in) {
  std::array<char, 4> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) throw std::runtime_error("not a .trc file (bad magic)");
  const std::uint32_t version = get_u32(in);
  if (version != kVersion) {
    throw std::runtime_error("unsupported .trc version " + std::to_string(version));
  }
  const std::uint64_t count = get_u64(in);
  RefTrace trace;
  SimTime last = std::numeric_limits<SimTime>::min();
  for (std::uint64_t i = 0; i < count; ++i) {
    MemRef ref;
    ref.time = static_cast<SimTime>(get_u64(in));
    ref.addr = get_u32(in);
    unsigned char tail[4];
    in.read(reinterpret_cast<char*>(tail), 4);
    if (!in) throw std::runtime_error("truncated .trc file");
    ref.proc = static_cast<std::int16_t>(tail[0] | (tail[1] << 8));
    if (ref.proc < 0) {
      throw std::runtime_error("corrupt .trc record " + std::to_string(i) +
                               " (negative proc " + std::to_string(ref.proc) + ")");
    }
    if (tail[2] > 1) throw std::runtime_error("corrupt .trc record (bad op)");
    if (tail[3] != 0) {
      throw std::runtime_error("corrupt .trc record " + std::to_string(i) +
                               " (nonzero pad byte)");
    }
    ref.op = static_cast<MemOp>(tail[2]);
    if (ref.time < last) {
      throw std::runtime_error("corrupt .trc record " + std::to_string(i) +
                               " (time goes backwards)");
    }
    last = ref.time;
    trace.append(ref);
  }
  if (in.peek() != std::char_traits<char>::eof()) {
    throw std::runtime_error("corrupt .trc file (bytes after its " +
                             std::to_string(count) + " records)");
  }
  return trace;
}

RefTrace read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(in);
}

}  // namespace locus
