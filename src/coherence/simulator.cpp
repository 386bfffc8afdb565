#include "coherence/simulator.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "support/assert.hpp"

namespace locus {

namespace {

/// Protocols with a finite-cache model: those whose interval replay stays
/// exact under LRU eviction (simulator.hpp).
template <ProtocolKind P>
constexpr bool kHasFiniteModel =
    P == ProtocolKind::kWriteBackInvalidate || P == ProtocolKind::kWriteThrough;

/// A flush slot's key before the event it records is visited.
constexpr RefTrace::Key kNoKey{std::numeric_limits<SimTime>::max(),
                               std::numeric_limits<std::uint64_t>::max(),
                               std::numeric_limits<std::uint32_t>::max()};

}  // namespace

CoherenceSim::CoherenceSim(std::int32_t procs, CoherenceParams params)
    : procs_(procs), params_(params) {
  LOCUS_ASSERT(procs >= 1 && procs <= 32);
  LOCUS_ASSERT(params.line_size >= params.word_size && params.line_size > 0);
  LOCUS_ASSERT((params.line_size & (params.line_size - 1)) == 0);
  LOCUS_ASSERT(params.capacity_lines >= 0);
  if (params.capacity_lines > 0 && params.protocol != ProtocolKind::kWriteBackInvalidate &&
      params.protocol != ProtocolKind::kWriteThrough) {
    throw std::invalid_argument(
        "finite caches (capacity_lines > 0) are modelled under write-back-invalidate "
        "and write-through only");
  }
  line_shift_ = std::countr_zero(static_cast<std::uint32_t>(params.line_size));
  dense_lines_ = kDenseAddrBound >> line_shift_;
  if (params.capacity_lines > 0) {
    lru_order_.resize(static_cast<std::size_t>(procs));
    lru_map_.resize(static_cast<std::size_t>(procs));
  }
}

CoherenceSim::LineState& CoherenceSim::grown_line_state(std::uint32_t line_addr) {
  if (line_addr >= dense_lines_) return sparse_[line_addr];
  dense_.resize(std::min<std::size_t>(
      dense_lines_, std::max<std::size_t>(line_addr + 1, 2 * dense_.size())));
  return dense_[line_addr];
}

std::size_t CoherenceSim::lines_touched() const {
  const auto dense = std::count_if(dense_.begin(), dense_.end(),
                                   [](const LineState& l) { return l.ever_held != 0; });
  return static_cast<std::size_t>(dense) + sparse_.size();
}

std::optional<std::uint32_t> CoherenceSim::lru_touch(std::int32_t proc,
                                                     std::uint32_t line_addr) {
  auto p = static_cast<std::size_t>(proc);
  auto& order = lru_order_[p];
  auto& map = lru_map_[p];
  if (auto it = map.find(line_addr); it != map.end()) {
    order.erase(it->second);
  }
  order.push_front(line_addr);
  map[line_addr] = order.begin();
  if (static_cast<std::int32_t>(order.size()) <= params_.capacity_lines) return std::nullopt;

  const std::uint32_t victim = order.back();
  order.pop_back();
  map.erase(victim);
  ++traffic_.capacity_evictions;
  return victim;
}

void CoherenceSim::evict(LineState& line, std::int32_t proc) {
  line.present &= ~(1u << proc);
  if (line.dirty_owner == proc) {
    line.dirty_owner = -1;
    traffic_.eviction_writeback_bytes += static_cast<std::uint64_t>(params_.line_size);
  }
}

CoherenceSim::FlushSlot* CoherenceSim::live_slot(const LineState& line,
                                                 std::uint32_t line_addr) {
  if (line.flush_slot < flush_slots_.size() &&
      flush_slots_[line.flush_slot].line == line_addr) {
    return &flush_slots_[line.flush_slot];
  }
  return nullptr;
}

void CoherenceSim::open_slot(LineState& line, const FlushSlot& slot) {
  line.flush_slot = static_cast<std::uint32_t>(flush_slots_.size());
  flush_slots_.push_back(slot);
}

void CoherenceSim::settle(const FlushSlot& slot, bool refund) {
  const auto line_bytes = static_cast<std::uint64_t>(params_.line_size);
  const std::uint64_t bytes = refund ? 0 - line_bytes : line_bytes;  // wraps to subtract
  if (slot.read < slot.evict) {
    traffic_.read_flush_bytes += bytes;
    (slot.held ? traffic_.refetch_bytes : traffic_.cold_fetch_bytes) -= bytes;
  } else {
    traffic_.eviction_writeback_bytes += bytes;
  }
}

namespace {

/// Calls fn.template operator()<P, kFinite>() for the protocol and cache
/// kind of `params`: the one runtime choice a replay makes. The constructor
/// admits finite caches only for protocols with kHasFiniteModel.
template <class Fn>
void dispatch(const CoherenceParams& params, Fn&& fn) {
  const auto with = [&]<ProtocolKind P>() {
    if constexpr (kHasFiniteModel<P>) {
      if (params.capacity_lines > 0) return fn.template operator()<P, true>();
    }
    fn.template operator()<P, false>();
  };
  switch (params.protocol) {
    case ProtocolKind::kWriteBackInvalidate:
      return with.template operator()<ProtocolKind::kWriteBackInvalidate>();
    case ProtocolKind::kWriteThrough:
      return with.template operator()<ProtocolKind::kWriteThrough>();
    case ProtocolKind::kMesi:
      return with.template operator()<ProtocolKind::kMesi>();
    case ProtocolKind::kDragon:
      return with.template operator()<ProtocolKind::kDragon>();
  }
}

/// The interval replay's shared hit filter (DESIGN.md §7.6): for each line
/// of the smallest size swept, processors that hold it at every size. A
/// processor holds it from its own access until another processor writes
/// anywhere in the widest line around it (in an infinite cache only a
/// foreign write removes a copy), so a read whose bit is set hits in every
/// simulator and is skipped. Addresses at or above kDenseAddrBound bypass
/// the filter, as does every address when the smallest line is wider than
/// the bound.
class HitFilter {
 public:
  HitFilter(std::uint32_t smallest, std::uint32_t widest)
      : shift_(std::countr_zero(smallest)),
        widest_mask_(~(widest - 1)),
        span_(widest / smallest),
        cap_(CoherenceSim::kDenseAddrBound >> shift_) {}

  /// Whether a read of `addr` by `bit`'s processor hits at every size; if
  /// not, marks the processor as holding the line, since every simulator
  /// replays the read.
  bool hit(std::uint32_t bit, std::uint32_t addr) {
    const std::uint32_t i = addr >> shift_;
    if (i >= cap_) return false;
    if (i >= held_.size()) {
      held_.resize(std::min<std::size_t>(cap_, std::max<std::size_t>(i + 1, 2 * held_.size())));
    }
    if ((held_[i] & bit) != 0) return true;
    held_[i] |= bit;
    return false;
  }

  /// A write by `bit`'s processor takes every other processor's copies
  /// throughout the widest line around `addr` and leaves the writer holding
  /// the written line.
  void write(std::uint32_t bit, std::uint32_t addr) {
    const std::uint32_t widest = addr & widest_mask_;
    if (widest >= CoherenceSim::kDenseAddrBound) return;
    const std::size_t lo = widest >> shift_;
    const std::size_t hi = std::min(held_.size(), lo + span_);
    for (std::size_t i = lo; i < hi; ++i) held_[i] &= bit;
    if (const std::size_t i = addr >> shift_; i < held_.size()) held_[i] = bit;
  }

 private:
  int shift_;                        ///< log2 of the smallest line size
  std::uint32_t widest_mask_;        ///< clears the offset in the widest line
  std::size_t span_;                 ///< smallest lines per widest line
  std::uint32_t cap_;                ///< smallest lines below kDenseAddrBound
  std::vector<std::uint32_t> held_;  ///< per smallest line, grown on demand
};

}  // namespace

template <ProtocolKind P, bool kFinite>
void CoherenceSim::step(std::int32_t proc, std::uint32_t addr, MemOp op) {
  const std::uint32_t line_addr = addr >> line_shift_;
  const std::uint32_t bit = 1u << proc;
  // Finite caches: the accessed line becomes MRU; an overflowing victim is
  // evicted before the protocol handler can be confused by it. (Note the
  // handler below may invalidate other procs' copies; stale LRU entries of
  // invalidated lines are harmless — re-access refreshes them.)
  if constexpr (kFinite) {
    if (const auto victim = lru_touch(proc, line_addr)) evict(line_state(*victim), proc);
  }
  LineState& line = line_state(line_addr);
  if constexpr (P == ProtocolKind::kWriteBackInvalidate) {
    access_wbi(line, bit, proc, op);
  } else if constexpr (P == ProtocolKind::kWriteThrough) {
    access_write_through(line, bit, proc, op);
  } else if constexpr (P == ProtocolKind::kMesi) {
    access_mesi(line, bit, proc, op);
  } else {
    access_dragon(line, bit, proc, op);
  }
}

void CoherenceSim::access(std::int32_t proc, std::uint32_t addr, MemOp op) {
  LOCUS_ASSERT(proc >= 0 && proc < procs_);
  ++traffic_.accesses;
  dispatch(params_, [&]<ProtocolKind P, bool kFinite>() { step<P, kFinite>(proc, addr, op); });
}

template <ProtocolKind P, bool kFinite>
void CoherenceSim::interval_read(std::int32_t proc, std::uint32_t addr,
                                 const RefTrace::Position& at) {
  const std::uint32_t line_addr = addr >> line_shift_;
  const std::uint32_t bit = 1u << proc;
  if constexpr (kFinite) {
    if (const auto victim = lru_touch(proc, line_addr)) interval_evict<P>(proc, *victim, at);
  }
  LineState& line = line_state(line_addr);
  // A read hit changes nothing under any protocol.
  if (line.dirty_owner == proc || (line.present & bit) != 0) return;
  if constexpr (P == ProtocolKind::kWriteThrough || P == ProtocolKind::kDragon) {
    // No read ever clears a dirty owner here, so reads between writes commute.
    step<P, false>(proc, addr, MemOp::kRead);
  } else {
    // A dirty line at a read miss was dirty when the interval began, and its
    // first foreign reader by key takes the flush unless the owner evicted
    // the line first. Every other reader fetches the line as a cold fetch or
    // a refetch by its own ever-held bit, so a read that comes before the
    // slot's reader only trades fetches with it (and, against the owner's
    // eviction, the flush with the write-back). The slot lives until the
    // interval's write clears flush_slots_.
    const bool held = (line.ever_held & bit) != 0;
    if (line.dirty_owner >= 0) {
      open_slot(line, FlushSlot{line_addr, line.dirty_owner, held, at.key(), kNoKey});
      step<P, false>(proc, addr, MemOp::kRead);  // charges the flush
      return;
    }
    FlushSlot* slot = live_slot(line, line_addr);
    step<P, false>(proc, addr, MemOp::kRead);  // charges this reader's fetch
    if (slot == nullptr || slot->owner == proc) return;
    const RefTrace::Key key = at.key();
    if (!(key < slot->read)) return;
    // This read becomes the slot's reader, and the reader it displaces pays
    // its own fetch again.
    settle(*slot, true);
    slot->read = key;
    slot->held = held;
    settle(*slot, false);
  }
}

template <ProtocolKind P>
void CoherenceSim::interval_evict(std::int32_t proc, std::uint32_t victim,
                                  const RefTrace::Position& at) {
  LineState& line = line_state(victim);
  if constexpr (P == ProtocolKind::kWriteBackInvalidate) {
    // Only the owner's first eviction of a line dirty since the interval
    // began can reorder with another processor's read of it.
    if (line.dirty_owner == proc) {
      open_slot(line, FlushSlot{victim, line.dirty_owner, false, kNoKey, at.key()});
    } else if (FlushSlot* slot = live_slot(line, victim);
               slot != nullptr && slot->owner == proc && slot->evict == kNoKey) {
      settle(*slot, true);
      slot->evict = at.key();
      settle(*slot, false);
    }
  }
  evict(line, proc);  // the write-back of a line still dirty, charged once
}

void CoherenceSim::replay_all(std::span<CoherenceSim> sims, const RefTrace& trace) {
  if (sims.empty()) return;
  for (CoherenceSim& sim : sims) {
    LOCUS_ASSERT(sim.params_.protocol == sims[0].params_.protocol &&
                 sim.params_.capacity_lines == sims[0].params_.capacity_lines);
    // Every stream's processor is in range, so no reference needs a check.
    LOCUS_ASSERT(trace.streams() <= static_cast<std::size_t>(sim.procs_));
    sim.flush_slots_.clear();  // slots of an earlier replay's last interval
  }
  dispatch(sims[0].params_, [&]<ProtocolKind P, bool kFinite>() {
    // Infinite caches skip the reads the hit filter proves hits; with finite
    // caches every read reaches every simulator, since under LRU even a hit
    // reorders recency.
    const auto [smallest, widest] = std::minmax_element(
        sims.begin(), sims.end(), [](const CoherenceSim& a, const CoherenceSim& b) {
          return a.params_.line_size < b.params_.line_size;
        });
    HitFilter filter(static_cast<std::uint32_t>(smallest->params_.line_size),
                     static_cast<std::uint32_t>(widest->params_.line_size));
    trace.for_each_write_interval(
        [&](std::size_t proc, std::span<const std::uint32_t> addrs, RefTrace::Position at) {
          const auto p = static_cast<std::int32_t>(proc);
          for (std::uint32_t j = 0; j < addrs.size(); ++j) {
            if constexpr (!kFinite) {
              if (filter.hit(1u << p, addrs[j])) continue;
            }
            for (CoherenceSim& sim : sims) {
              sim.interval_read<P, kFinite>(p, addrs[j], RefTrace::Position{at.block, at.i + j});
            }
          }
        },
        [&](std::size_t proc, std::uint32_t addr, const RefTrace::Key&) {
          const auto p = static_cast<std::int32_t>(proc);
          if constexpr (!kFinite) filter.write(1u << p, addr);
          for (CoherenceSim& sim : sims) {
            sim.step<P, kFinite>(p, addr, MemOp::kWrite);
            sim.flush_slots_.clear();
          }
        });
  });
  for (CoherenceSim& sim : sims) sim.traffic_.accesses += trace.size();
}

void CoherenceSim::access_wbi(LineState& line, std::uint32_t bit, std::int32_t proc,
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

void CoherenceSim::access_write_through(LineState& line, std::uint32_t bit,
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

void CoherenceSim::access_mesi(LineState& line, std::uint32_t bit, std::int32_t proc,
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

void CoherenceSim::access_dragon(LineState& line, std::uint32_t bit,
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

void CoherenceSim::replay(const RefTrace& trace) {
  replay_all(std::span<CoherenceSim>(this, 1), trace);
}

void CoherenceSim::publish_obs(obs::Obs& o) const {
  using Names = obs::CoherenceObsNames;
  auto& reg = o.counters();
  const CoherenceTraffic& t = traffic_;
  reg.add(reg.counter(Names::kAccesses), t.accesses);
  reg.add(reg.counter(Names::kReadMisses), t.read_misses);
  reg.add(reg.counter(Names::kWriteMisses), t.write_misses);
  reg.add(reg.counter(Names::kInvalidations), t.invalidation_msgs);
  reg.add(reg.counter(Names::kColdFetchBytes), t.cold_fetch_bytes);
  reg.add(reg.counter(Names::kRefetchBytes), t.refetch_bytes);
  reg.add(reg.counter(Names::kWriteFetchBytes), t.write_fetch_bytes);
  reg.add(reg.counter(Names::kWordWriteBytes), t.word_write_bytes);
  reg.add(reg.counter(Names::kReadFlushBytes), t.read_flush_bytes);
  reg.add(reg.counter(Names::kWriteFlushBytes), t.write_flush_bytes);
  reg.add(reg.counter(Names::kEvictionWritebackBytes), t.eviction_writeback_bytes);
  reg.add(reg.counter(Names::kTotalBytes), t.total_bytes());
  reg.add(reg.counter(Names::kLinesTouched), lines_touched());
}

std::vector<CoherenceTraffic> sweep_line_sizes(const RefTrace& trace,
                                               std::int32_t procs,
                                               const std::vector<std::int32_t>& sizes,
                                               ProtocolKind protocol,
                                               std::int32_t capacity_lines) {
  std::vector<CoherenceSim> sims;
  sims.reserve(sizes.size());
  for (std::int32_t size : sizes) {
    CoherenceParams params;
    params.line_size = size;
    params.protocol = protocol;
    params.capacity_lines = capacity_lines;
    sims.emplace_back(procs, params);
  }
  CoherenceSim::replay_all(sims, trace);
  std::vector<CoherenceTraffic> out;
  out.reserve(sims.size());
  for (const CoherenceSim& sim : sims) out.push_back(sim.traffic());
  return out;
}

}  // namespace locus
