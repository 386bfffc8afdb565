// Trace-driven coherence simulation with infinite caches.
//
// Per cache line we track which processors hold a clean copy (a bitmask)
// and which single processor, if any, holds it dirty. Caches are infinite
// (paper footnote 3: no capacity misses), so state only changes through
// the protocol events themselves.
//
// Line state lives in a dense table indexed by line address, up to
// kDenseAddrBound bytes of address space — the cost array's range — and
// grown on first touch of a line past its end. The few shared objects
// above the bound (the distributed loop counter) go to a small side map.
//
// Replay: replay() and sweep_line_sizes() choose the protocol and finite
// versus infinite caches once per call and run handlers specialised at
// compile time for that pair (DESIGN.md §7.6). Infinite caches replay by
// write intervals (RefTrace::for_each_write_interval): writes in global
// order, and between two writes each processor's reads in its own order.
// Reads between two writes commute except in which reader takes a dirty
// line's flush under write-back-invalidate and MESI; a per-line flush slot
// hands it to the earliest reader by key. A hit filter shared by every size
// skips each read whose reader has held its smallest-size line since the
// last foreign write anywhere in the widest-size line around it: that read
// hits at every size and a hit changes no state. Finite caches do not
// decompose (an LRU eviction reorders with other processors' reads, and even
// a hit reorders recency), so they step through the globally merged
// RefTrace::for_each. access() routes single references to the same
// handlers.
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "coherence/protocol.hpp"
#include "obs/obs.hpp"
#include "shm/trace.hpp"

namespace locus {

class CoherenceSim {
 public:
  CoherenceSim(std::int32_t procs, CoherenceParams params);

  /// Applies one shared reference.
  void access(std::int32_t proc, std::uint32_t addr, MemOp op);

  /// Replays a whole trace in its time order.
  void replay(const RefTrace& trace);

  const CoherenceTraffic& traffic() const { return traffic_; }
  const CoherenceParams& params() const { return params_; }

  /// Number of distinct lines ever touched (cold footprint).
  std::size_t lines_touched() const;

  /// Byte addresses below this bound are tracked in the dense line table
  /// (16 MiB: a cost array of up to 4M cells); higher ones in a side map.
  static constexpr std::uint32_t kDenseAddrBound = 1u << 24;

  /// Mirrors the accumulated traffic breakdown into `o`'s registry under
  /// the coh.* names (obs::CoherenceObsNames), once. The replay
  /// loop itself carries no hooks — counters are published from the exact
  /// CoherenceTraffic totals after the fact, so replay cost is unchanged.
  void publish_obs(obs::Obs& o) const;

 private:
  friend std::vector<CoherenceTraffic> sweep_line_sizes(
      const RefTrace& trace, std::int32_t procs, const std::vector<std::int32_t>& sizes,
      ProtocolKind protocol, std::int32_t capacity_lines);

  struct LineState {
    std::uint32_t present = 0;     ///< bitmask of procs with a valid copy
    std::uint32_t ever_held = 0;   ///< procs that held the line at some point;
                                   ///< nonzero once the line is touched
    std::uint32_t flush_slot = 0;  ///< index in flush_slots_, live only if
                                   ///< that slot names this line
    std::int8_t dirty_owner = -1;  ///< proc holding it dirty, or -1
    bool exclusive_clean = false;  ///< MESI E state (single clean holder)
  };

  /// The read that took a line's dirty flush in the current write interval
  /// of an interval replay.
  struct FlushSlot {
    std::uint32_t line;
    bool held;  ///< whether that reader had held the line before the read
    RefTrace::Key key;
  };

  /// Replays `trace` into every simulator of `sims`. All of them share one
  /// protocol and capacity.
  static void replay_all(std::span<CoherenceSim> sims, const RefTrace& trace);

  /// Applies one reference with the protocol and cache kind fixed at compile
  /// time; the caller counts the access.
  template <ProtocolKind P, bool kFinite>
  void step(std::int32_t proc, std::uint32_t addr, MemOp op);

  /// Applies one read of an infinite-cache interval replay, which visits the
  /// reads between two writes stream by stream. Under write-back-invalidate
  /// and MESI it settles which reader takes a dirty line's flush: the first
  /// by key, not the first visited.
  template <ProtocolKind P>
  void interval_read(std::int32_t proc, std::uint32_t addr,
                     const RefTrace::Position& at);

  /// The state of line `line_addr`, created (untouched) on first use. The
  /// reference is valid until the next call.
  LineState& line_state(std::uint32_t line_addr) {
    if (line_addr < dense_.size()) [[likely]] return dense_[line_addr];
    return grown_line_state(line_addr);
  }
  /// line_state() beyond the dense table: grows it (doubling, up to
  /// kDenseAddrBound) or uses the side map.
  LineState& grown_line_state(std::uint32_t line_addr);

  void access_wbi(LineState& line, std::uint32_t bit, std::int32_t proc, MemOp op);
  void access_write_through(LineState& line, std::uint32_t bit, std::int32_t proc,
                            MemOp op);
  void access_mesi(LineState& line, std::uint32_t bit, std::int32_t proc, MemOp op);
  void access_dragon(LineState& line, std::uint32_t bit, std::int32_t proc, MemOp op);

  /// LRU bookkeeping for finite caches (capacity_lines > 0).
  void lru_touch(std::int32_t proc, std::uint32_t line_addr);

  std::int32_t procs_;
  CoherenceParams params_;
  CoherenceTraffic traffic_;
  std::vector<LineState> dense_;  ///< lines below dense_lines_, grown on demand
  std::uint32_t dense_lines_ = 0;
  int line_shift_ = 0;  ///< log2(line_size)
  std::unordered_map<std::uint32_t, LineState> sparse_;  ///< lines above it
  std::vector<FlushSlot> flush_slots_;  ///< flushes taken since the last write
  std::vector<std::list<std::uint32_t>> lru_order_;  ///< per proc, front = MRU
  std::vector<std::unordered_map<std::uint32_t, std::list<std::uint32_t>::iterator>>
      lru_map_;
};

/// Replays `trace` once per line size and returns the traffic totals in
/// order (the Table 3 sweep). One pass over the trace feeds every size's
/// simulator in turn; the totals equal separate CoherenceSim::replay runs.
std::vector<CoherenceTraffic> sweep_line_sizes(const RefTrace& trace,
                                               std::int32_t procs,
                                               const std::vector<std::int32_t>& sizes,
                                               ProtocolKind protocol =
                                                   ProtocolKind::kWriteBackInvalidate,
                                               std::int32_t capacity_lines = 0);

}  // namespace locus
