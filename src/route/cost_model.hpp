// Simulated compute-time model.
//
// CBS charged real (Multimax-measured, /5) compute time between message
// events; we charge an analytic model instead: routing work is proportional
// to cost-array probes, message work to cells scanned and bytes moved. The
// constants are calibrated so a 16-processor bnrE-like run lands in the
// paper's 1.1–1.9 simulated-second band, and they approximate an Ametek
// 2010-class node (MC68020, a few MIPS). They are fixed: every engine
// charges this one model. The network constants are the paper's and live
// with the network (sim/network.hpp): HopTime = 100 ns per byte-hop,
// ProcessTime = 2000 ns per network interface crossing, packet latency =
// 2·ProcessTime + HopTime·(D + L) uncontended.
#pragma once

#include <cstdint>

namespace locus {

struct TimeModel {
  // --- routing compute ---
  static constexpr std::int64_t kProbeNs = 1400;        ///< price one cost-array cell
  static constexpr std::int64_t kCommitNs = 1000;       ///< increment/decrement one cell
  static constexpr std::int64_t kWireFixedNs = 150000;  ///< per-wire overhead (setup, pin walk)

  // --- message software overhead (paper: packet assembly/disassembly can
  //     reach a quarter of processing time at high update frequency) ---
  static constexpr std::int64_t kScanCellNs = 1000;    ///< delta-array scan, per cell visited
  static constexpr std::int64_t kPackByteNs = 4000;    ///< assemble payload, per byte
  static constexpr std::int64_t kUnpackByteNs = 4000;  ///< apply payload, per byte
  static constexpr std::int64_t kMsgFixedNs = 150000;  ///< per-packet software handling

  // --- shared memory access model (used only for shm time reporting) ---
  static constexpr std::int64_t kShmReadNs = 1000;
  static constexpr std::int64_t kShmWriteNs = 1000;

  static constexpr std::int64_t routing_time_ns(std::int64_t probes, std::int64_t commits,
                                                std::int64_t wires) {
    return probes * kProbeNs + commits * kCommitNs + wires * kWireFixedNs;
  }
};

}  // namespace locus
