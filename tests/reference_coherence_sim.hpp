// The coherence simulator as it stood before the replay was specialised on
// protocol and cache kind: one switch on the protocol, one LRU test and a
// grow-on-demand line lookup per access, stepping through the trace in
// global order (test::trace_refs). It keeps a finite-cache model for every
// protocol. The production CoherenceSim must match it field for field on
// every protocol and capacity it models (test_coherence.cpp,
// ReferenceCoherenceSim.*, IntervalReplayProperty.*).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "coherence/protocol.hpp"
#include "shm/trace.hpp"
#include "support/assert.hpp"
#include "test_util.hpp"

namespace locus::test {

class ReferenceCoherenceSim {
 public:
  ReferenceCoherenceSim(std::int32_t procs, CoherenceParams params)
      : procs_(procs), params_(params) {
    LOCUS_ASSERT(procs >= 1 && procs <= 32);
    LOCUS_ASSERT(params.line_size >= params.word_size && params.line_size > 0);
    LOCUS_ASSERT((params.line_size & (params.line_size - 1)) == 0);
    LOCUS_ASSERT(params.capacity_lines >= 0);
    line_shift_ = std::countr_zero(static_cast<std::uint32_t>(params.line_size));
    dense_lines_ = kDenseAddrBound >> line_shift_;
    if (params.capacity_lines > 0) {
      lru_order_.resize(static_cast<std::size_t>(procs));
      lru_map_.resize(static_cast<std::size_t>(procs));
    }
  }

  void replay(const RefTrace& trace) {
    for (const MemRef& ref : trace_refs(trace)) access(ref.proc, ref.addr, ref.op);
  }

  const CoherenceTraffic& traffic() const { return traffic_; }

  /// Number of distinct lines ever touched.
  std::size_t lines_touched() const {
    const auto dense = std::count_if(dense_.begin(), dense_.end(),
                                     [](const LineState& l) { return l.ever_held != 0; });
    return static_cast<std::size_t>(dense) + sparse_.size();
  }

  static constexpr std::uint32_t kDenseAddrBound = 1u << 24;

  void access(std::int32_t proc, std::uint32_t addr, MemOp op) {
    LOCUS_ASSERT(proc >= 0 && proc < procs_);
    ++traffic_.accesses;
    const std::uint32_t line_addr = addr >> line_shift_;
    const std::uint32_t bit = 1u << proc;
    // Finite caches: the accessed line becomes MRU; an overflowing victim is
    // evicted before the protocol handler can be confused by it. (Note the
    // handler below may invalidate other procs' copies; stale LRU entries of
    // invalidated lines are harmless — re-access refreshes them.)
    if (params_.capacity_lines > 0) {
      lru_touch(proc, line_addr);
    }
    LineState& line = line_state(line_addr);
    switch (params_.protocol) {
      case ProtocolKind::kWriteBackInvalidate:
        access_wbi(line, bit, proc, op);
        break;
      case ProtocolKind::kWriteThrough:
        access_write_through(line, bit, proc, op);
        break;
      case ProtocolKind::kMesi:
        access_mesi(line, bit, proc, op);
        break;
      case ProtocolKind::kDragon:
        access_dragon(line, bit, proc, op);
        break;
    }
  }


 private:
  struct LineState {
    std::uint32_t present = 0;
    std::uint32_t ever_held = 0;
    std::int32_t dirty_owner = -1;
    bool exclusive_clean = false;
  };

  LineState& line_state(std::uint32_t line_addr) {
    if (line_addr < dense_.size()) return dense_[line_addr];
    if (line_addr < dense_lines_) {
      dense_.resize(std::min<std::size_t>(
          dense_lines_, std::max<std::size_t>(line_addr + 1, 2 * dense_.size())));
      return dense_[line_addr];
    }
    return sparse_[line_addr];
  }

  void lru_touch(std::int32_t proc, std::uint32_t line_addr) {
    auto p = static_cast<std::size_t>(proc);
    auto& order = lru_order_[p];
    auto& map = lru_map_[p];
    if (auto it = map.find(line_addr); it != map.end()) {
      order.erase(it->second);
    }
    order.push_front(line_addr);
    map[line_addr] = order.begin();
    if (static_cast<std::int32_t>(order.size()) <= params_.capacity_lines) return;

    // Evict the least recently used line; a dirty victim is written back.
    const std::uint32_t victim = order.back();
    order.pop_back();
    map.erase(victim);
    ++traffic_.capacity_evictions;
    LineState& line = line_state(victim);
    line.present &= ~(1u << proc);
    if (line.dirty_owner == proc) {
      line.dirty_owner = -1;
      traffic_.eviction_writeback_bytes +=
          static_cast<std::uint64_t>(params_.line_size);
    }
  }

  void access_wbi(LineState& line, std::uint32_t bit, std::int32_t proc,
                                MemOp op) {
    const auto line_bytes = static_cast<std::uint64_t>(params_.line_size);
    const auto word_bytes = static_cast<std::uint64_t>(params_.word_size);

    if (op == MemOp::kRead) {
      if (line.dirty_owner == proc || (line.present & bit) != 0) return;  // hit
      ++traffic_.read_misses;
      if (line.dirty_owner >= 0) {
        // Another cache holds it dirty: it flushes, supplying the requester
        // in the same bus transaction; both now hold it clean.
        traffic_.read_flush_bytes += line_bytes;
        line.present |= (1u << line.dirty_owner);
        line.dirty_owner = -1;
      } else if ((line.ever_held & bit) != 0) {
        traffic_.refetch_bytes += line_bytes;  // lost to an invalidation
      } else {
        traffic_.cold_fetch_bytes += line_bytes;
      }
      line.present |= bit;
      line.ever_held |= bit;
      return;
    }

    // Write.
    if (line.dirty_owner == proc) return;  // dirty hit, free
    if (line.dirty_owner >= 0) {
      // Dirty in another cache: flush it, then take ownership.
      traffic_.write_flush_bytes += line_bytes;
      ++traffic_.invalidation_msgs;
      line.dirty_owner = -1;
      line.present = 0;
      traffic_.word_write_bytes += word_bytes;
      line.dirty_owner = proc;
      line.present = bit;
      line.ever_held |= bit;
      return;
    }
    if ((line.present & bit) == 0) {
      // Write miss to a clean/memory line: fill it first.
      ++traffic_.write_misses;
      traffic_.write_fetch_bytes += line_bytes;
    }
    // First write to a clean line: a word goes on the bus, every other copy
    // is invalidated (paper §5.2).
    traffic_.word_write_bytes += word_bytes;
    if ((line.present & ~bit) != 0) ++traffic_.invalidation_msgs;
    line.present = bit;
    line.ever_held |= bit;
    line.dirty_owner = proc;
  }

  void access_write_through(LineState& line, std::uint32_t bit,
                                          std::int32_t proc, MemOp op) {
    static_cast<void>(proc);
    const auto line_bytes = static_cast<std::uint64_t>(params_.line_size);
    const auto word_bytes = static_cast<std::uint64_t>(params_.word_size);
    // Memory is always current: no dirty state, no flushes.
    if (op == MemOp::kRead) {
      if ((line.present & bit) != 0) return;
      ++traffic_.read_misses;
      if ((line.ever_held & bit) != 0) {
        traffic_.refetch_bytes += line_bytes;
      } else {
        traffic_.cold_fetch_bytes += line_bytes;
      }
      line.present |= bit;
      line.ever_held |= bit;
      return;
    }
    if ((line.present & bit) == 0) {
      ++traffic_.write_misses;
      traffic_.write_fetch_bytes += line_bytes;
    }
    traffic_.word_write_bytes += word_bytes;  // every write goes through
    if ((line.present & ~bit) != 0) ++traffic_.invalidation_msgs;
    line.present = bit;  // invalidate other copies
    line.ever_held |= bit;
  }

  void access_mesi(LineState& line, std::uint32_t bit, std::int32_t proc,
                                 MemOp op) {
    const auto line_bytes = static_cast<std::uint64_t>(params_.line_size);
    if (op == MemOp::kRead) {
      if (line.dirty_owner == proc || (line.present & bit) != 0) return;
      ++traffic_.read_misses;
      if (line.dirty_owner >= 0) {
        traffic_.read_flush_bytes += line_bytes;
        line.present |= (1u << line.dirty_owner);
        line.dirty_owner = -1;
      } else if ((line.ever_held & bit) != 0) {
        traffic_.refetch_bytes += line_bytes;
      } else {
        traffic_.cold_fetch_bytes += line_bytes;
      }
      const bool alone = (line.present == 0);
      line.present |= bit;
      line.ever_held |= bit;
      line.exclusive_clean = alone;
      return;
    }

    if (line.dirty_owner == proc) return;
    if (line.dirty_owner >= 0) {
      traffic_.write_flush_bytes += line_bytes;
      ++traffic_.invalidation_msgs;
      line.dirty_owner = -1;
      line.present = 0;
    }
    const bool held = (line.present & bit) != 0;
    const bool exclusive = held && line.exclusive_clean && line.present == bit;
    if (!held) {
      ++traffic_.write_misses;
      traffic_.write_fetch_bytes += line_bytes;
    }
    if (!exclusive) {
      // Invalidate other sharers with an address-only bus transaction;
      // Illinois' E state makes the silent upgrade possible when alone.
      if ((line.present & ~bit) != 0 || !held) ++traffic_.invalidation_msgs;
      traffic_.word_write_bytes += static_cast<std::uint64_t>(params_.word_size);
    }
    line.present = bit;
    line.ever_held |= bit;
    line.dirty_owner = proc;
    line.exclusive_clean = false;
  }

  void access_dragon(LineState& line, std::uint32_t bit,
                                   std::int32_t proc, MemOp op) {
    static_cast<void>(proc);
    const auto line_bytes = static_cast<std::uint64_t>(params_.line_size);
    const auto word_bytes = static_cast<std::uint64_t>(params_.word_size);
    // Write-update: copies are never invalidated, so with infinite caches a
    // processor misses each line at most once (no refetches), and every write
    // to a line with other sharers broadcasts the written word.
    if (op == MemOp::kRead) {
      if ((line.present & bit) != 0) return;
      ++traffic_.read_misses;
      if (line.dirty_owner >= 0) {
        // Dirty-somewhere lines are supplied cache-to-cache (Sm/M states).
        traffic_.read_flush_bytes += line_bytes;
      } else {
        traffic_.cold_fetch_bytes += line_bytes;
      }
      line.present |= bit;
      line.ever_held |= bit;
      return;
    }
    if ((line.present & bit) == 0) {
      ++traffic_.write_misses;
      traffic_.write_fetch_bytes += line_bytes;
      line.present |= bit;
      line.ever_held |= bit;
    }
    if ((line.present & ~bit) != 0) {
      // Shared: broadcast the word so every copy stays current.
      traffic_.word_write_bytes += word_bytes;
    }
    // Mark "modified relative to memory" (held by the writing cache).
    line.dirty_owner = proc;
  }

  std::int32_t procs_;
  CoherenceParams params_;
  CoherenceTraffic traffic_;
  std::vector<LineState> dense_;
  std::uint32_t dense_lines_ = 0;
  int line_shift_ = 0;
  std::unordered_map<std::uint32_t, LineState> sparse_;
  std::vector<std::list<std::uint32_t>> lru_order_;
  std::vector<std::unordered_map<std::uint32_t, std::list<std::uint32_t>::iterator>>
      lru_map_;
};

}  // namespace locus::test
