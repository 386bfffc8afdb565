// Cache coherence protocol abstraction.
//
// The paper measures shared memory traffic under a Write Back with
// Invalidate protocol (Archibald & Baer's simulation study) with infinite
// caches: traffic = cold miss fetches + word writes announcing the first
// write to a clean line + dirty-line flushes + refetches after
// invalidation (paper §5.2). We implement that protocol plus two baselines
// for ablation: write-through-with-invalidate and Illinois MESI.
#pragma once

#include <cstdint>

#include "shm/trace.hpp"

namespace locus {

enum class ProtocolKind : std::int8_t {
  kWriteBackInvalidate,  ///< the paper's protocol
  kWriteThrough,         ///< every write goes to the bus
  kMesi,                 ///< Illinois: exclusive-clean state elides the word write
  kDragon,               ///< write-update: sharers receive word updates, no
                         ///< invalidations (and therefore no refetches)
};

/// Bus traffic accounting, broken down by cause. The paper's headline
/// split — "over 80% of the bytes transferred are caused by writes" —
/// attributes to writes every transfer that exists *because somebody
/// wrote*: the bus word announcing the first write to a clean line, dirty
/// flushes (whoever forces them), write-miss fills, and refetches of lines
/// a processor lost to an invalidation. Only cold (first-touch) read fills
/// count as read-caused; they are the traffic a read-only program would
/// also pay.
struct CoherenceTraffic {
  std::uint64_t cold_fetch_bytes = 0;   ///< first-touch read-miss fills
  std::uint64_t refetch_bytes = 0;      ///< read fills after an invalidation
  std::uint64_t write_fetch_bytes = 0;  ///< line fills for write misses
  std::uint64_t word_write_bytes = 0;   ///< first-write-to-clean bus words
  std::uint64_t read_flush_bytes = 0;   ///< dirty flushes forced by reads
  std::uint64_t write_flush_bytes = 0;  ///< dirty flushes forced by writes
  std::uint64_t invalidation_msgs = 0;  ///< address-only invalidate events

  std::uint64_t eviction_writeback_bytes = 0;  ///< dirty LRU victims flushed

  std::uint64_t read_misses = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t capacity_evictions = 0;
  std::uint64_t accesses = 0;

  bool operator==(const CoherenceTraffic&) const = default;

  std::uint64_t read_bytes() const { return cold_fetch_bytes; }
  std::uint64_t write_bytes() const {
    return refetch_bytes + write_fetch_bytes + word_write_bytes +
           read_flush_bytes + write_flush_bytes + eviction_writeback_bytes;
  }
  std::uint64_t total_bytes() const { return read_bytes() + write_bytes(); }
  double write_fraction() const {
    std::uint64_t total = total_bytes();
    return total == 0 ? 0.0
                      : static_cast<double>(write_bytes()) / static_cast<double>(total);
  }
};

struct CoherenceParams {
  std::int32_t line_size = 8;  ///< bytes; paper sweeps 4/8/16/32
  std::int32_t word_size = 4;  ///< bus word for first-write announcements
  ProtocolKind protocol = ProtocolKind::kWriteBackInvalidate;
  /// Per-processor cache capacity in lines; 0 = infinite (the paper's
  /// assumption, footnote 3). Finite caches add capacity misses and
  /// dirty-eviction write-backs on an LRU policy.
  std::int32_t capacity_lines = 0;
};

}  // namespace locus
