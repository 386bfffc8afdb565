#include "shm/trace_io.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace locus {

namespace {

constexpr std::array<char, 4> kMagic = {'L', 'T', 'R', 'C'};
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kBlockHeaderBytes = 2 + 4 + 8 + 8;
/// References a reader takes in one piece, so a corrupt n allocates no
/// more than the bytes actually present.
constexpr std::size_t kReadPiece = std::size_t{1} << 16;
/// Bytes the writer gathers before handing them to the stream.
constexpr std::size_t kWriteBufferBytes = std::size_t{1} << 16;

void put(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint64_t get(const unsigned char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = bytes - 1; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// Reads exactly `n` bytes into `buf` or throws.
void read_exact(std::istream& in, std::vector<unsigned char>& buf, std::size_t n) {
  buf.resize(n);
  in.read(reinterpret_cast<char*>(buf.data()), static_cast<std::streamsize>(n));
  if (!in) throw std::runtime_error("truncated .trc file");
}

[[noreturn]] void corrupt(std::uint64_t block, const std::string& what) {
  throw std::runtime_error("corrupt .trc block " + std::to_string(block) + " (" + what + ")");
}

}  // namespace

void write_trace(std::ostream& out, const RefTrace& trace) {
  // Blocks in emission order: each stream's blocks are already in seq
  // order, so a block's stream position is the sum of the n before it.
  struct Ref {
    std::uint64_t seq;
    std::size_t proc;
    std::size_t block;
    std::size_t pos;
  };
  std::vector<Ref> order;
  for (std::size_t p = 0; p < trace.streams(); ++p) {
    std::size_t pos = 0;
    const std::span<const RefTrace::Block> blocks = trace.blocks(p);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      order.push_back(Ref{blocks[b].seq, p, b, pos});
      pos += blocks[b].n;
    }
  }
  std::sort(order.begin(), order.end(),
            [](const Ref& a, const Ref& b) { return a.seq < b.seq; });

  std::string buf(kMagic.begin(), kMagic.end());
  put(buf, kVersion, 4);
  put(buf, order.size(), 8);
  for (const Ref& r : order) {
    const RefTrace::Block& b = trace.blocks(r.proc)[r.block];
    put(buf, r.proc, 2);
    put(buf, b.n, 4);
    put(buf, static_cast<std::uint64_t>(b.t0), 8);
    put(buf, static_cast<std::uint64_t>(b.duration), 8);
    for (std::uint32_t i = 0; i < b.n; ++i) put(buf, trace.entry(r.proc, r.pos + i).addr, 4);
    for (std::uint32_t i = 0; i < b.n; i += 8) {
      unsigned bits = 0;
      for (std::uint32_t j = i; j < std::min(b.n, i + 8); ++j) {
        bits |= static_cast<unsigned>(trace.entry(r.proc, r.pos + j).op) << (j - i);
      }
      buf.push_back(static_cast<char>(bits));
    }
    if (buf.size() >= kWriteBufferBytes) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
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
  std::vector<unsigned char> buf;
  read_exact(in, buf, 4);
  const auto version = static_cast<std::uint32_t>(get(buf.data(), 4));
  if (version != kVersion) {
    throw std::runtime_error("unsupported .trc version " + std::to_string(version));
  }
  read_exact(in, buf, 8);
  const std::uint64_t count = get(buf.data(), 8);

  RefTrace trace;
  std::vector<SimTime> last;  // per stream, its latest stamp so far
  std::vector<std::uint32_t> addrs;
  std::vector<unsigned char> ops;
  for (std::uint64_t k = 0; k < count; ++k) {
    read_exact(in, buf, kBlockHeaderBytes);
    const auto proc = static_cast<std::uint16_t>(get(buf.data(), 2));
    const auto n = static_cast<std::uint32_t>(get(buf.data() + 2, 4));
    const auto t0 = static_cast<SimTime>(get(buf.data() + 6, 8));
    const auto duration = static_cast<SimTime>(get(buf.data() + 14, 8));
    if (proc > std::numeric_limits<std::int16_t>::max()) {
      corrupt(k, "proc " + std::to_string(proc) + " outside 0..32767");
    }
    if (n == 0) corrupt(k, "empty block");
    if (duration < 0) corrupt(k, "negative duration");
    // stamp() forms duration·(i+1) for i < n and adds its quotient to t0.
    SimTime end = 0;
    SimTime span = 0;
    if (__builtin_add_overflow(t0, duration, &end) ||
        __builtin_mul_overflow(duration, static_cast<SimTime>(n) + 1, &span)) {
      corrupt(k, "stamps overflow 64 bits");
    }
    const RefTrace::Block block{t0, duration, n, 0};
    if (proc >= last.size()) last.resize(proc + 1, std::numeric_limits<SimTime>::min());
    if (RefTrace::stamp(block, 0) < last[proc]) corrupt(k, "stream time goes backwards");
    last[proc] = RefTrace::stamp(block, n - 1);

    addrs.clear();
    for (std::uint32_t done = 0; done < n;) {
      const auto piece = static_cast<std::uint32_t>(std::min<std::size_t>(n - done, kReadPiece));
      read_exact(in, buf, std::size_t{4} * piece);
      for (std::uint32_t i = 0; i < piece; ++i) {
        addrs.push_back(static_cast<std::uint32_t>(get(buf.data() + 4 * i, 4)));
      }
      done += piece;
    }
    ops.clear();
    for (std::size_t done = 0, bytes = (std::size_t{n} + 7) / 8; done < bytes;) {
      const std::size_t piece = std::min(bytes - done, kReadPiece);
      read_exact(in, buf, piece);
      ops.insert(ops.end(), buf.begin(), buf.end());
      done += piece;
    }
    if (n % 8 != 0 && (ops.back() >> (n % 8)) != 0) corrupt(k, "nonzero op bits past n");

    trace.open_block(static_cast<std::int16_t>(proc));
    for (std::uint32_t i = 0; i < n; ++i) {
      trace.push(addrs[i], static_cast<MemOp>((ops[i / 8] >> (i % 8)) & 1u));
    }
    trace.close_block(t0, duration);
  }
  if (in.peek() != std::char_traits<char>::eof()) {
    throw std::runtime_error("corrupt .trc file (bytes after its " + std::to_string(count) +
                             " blocks)");
  }
  return trace;
}

RefTrace read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(in);
}

}  // namespace locus
