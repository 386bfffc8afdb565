// Trace-driven coherence simulation, with infinite caches (the paper's
// footnote 3) or finite LRU caches.
//
// Per cache line we track which processors hold a clean copy (a bitmask)
// and which single processor, if any, holds it dirty. With infinite caches
// state only changes through the protocol events themselves; a finite cache
// (capacity_lines > 0) also evicts its least recently used line.
//
// Line state lives in a dense table indexed by line address, up to
// kDenseAddrBound bytes of address space — the cost array's range — and
// grown on first touch of a line past its end. The few shared objects
// above the bound (the distributed loop counter) go to a small side map.
//
// Replay: replay() and sweep_line_sizes() choose the protocol and finite
// versus infinite caches once per call and run handlers specialised at
// compile time for that pair (DESIGN.md §7.6). Both replay by write
// intervals (RefTrace::for_each_write_interval): writes in global order,
// and between two writes each processor's reads in its own order. Reads
// between two writes commute except in which reader takes a dirty line's
// flush under write-back-invalidate and MESI; a per-line flush slot hands
// it to the earliest foreign reader by key.
//
// Infinite caches: a hit filter shared by every size skips each read whose
// reader has held its smallest-size line since the last foreign write
// anywhere in the widest-size line around it: that read hits at every size
// and a hit changes no state.
//
// Finite caches: each processor's LRU order, and so every eviction, depends
// only on its own stream, so every read is replayed (even a hit reorders
// recency) and the reads of an interval still commute but for one question
// under write-back-invalidate: does the dirty owner's first eviction of a
// line come before its least-key foreign read miss? The flush slot records
// both keys; the reader takes the flush if it comes first, otherwise the
// owner writes back at the eviction and every reader fetches by its own
// ever-held bit. Write-through keeps no dirty lines. MESI and Dragon do not
// decompose so: MESI's E state depends on whether a read miss comes before
// another holder's eviction, and under Dragon, where a read leaves the owner
// dirty, each reader takes a flush or a fetch by its own place against the
// owner's eviction (DESIGN.md §7.6 gives a trace for each). The constructor
// throws std::invalid_argument for them with capacity_lines > 0. access()
// routes single references to the same handlers.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "coherence/protocol.hpp"
#include "obs/obs.hpp"
#include "shm/trace.hpp"

namespace locus {

class CoherenceSim {
 public:
  /// Throws std::invalid_argument for finite caches under MESI or Dragon.
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

  /// A line that was dirty when the current write interval of a replay
  /// began and that a foreign read miss or the owner's eviction has touched
  /// since. A key not yet visited is the greatest possible one.
  struct FlushSlot {
    std::uint32_t line;
    std::int8_t owner;   ///< the line's dirty owner when the interval began
    bool held;           ///< whether the reader at `read` had held the line before
    RefTrace::Key read;  ///< the least-key foreign read miss visited so far
    RefTrace::Key evict; ///< the owner's first eviction of the line (finite caches)
  };

  /// Replays `trace` into every simulator of `sims`. All of them share one
  /// protocol and capacity.
  static void replay_all(std::span<CoherenceSim> sims, const RefTrace& trace);

  /// Applies one reference with the protocol and cache kind fixed at compile
  /// time; the caller counts the access.
  template <ProtocolKind P, bool kFinite>
  void step(std::int32_t proc, std::uint32_t addr, MemOp op);

  /// Applies one read of an interval replay, which visits the reads between
  /// two writes stream by stream. Under write-back-invalidate and MESI it
  /// settles which reader takes a dirty line's flush: the first foreign one
  /// by key, not the first visited, and with finite caches only if the
  /// owner has not evicted the line before it.
  template <ProtocolKind P, bool kFinite>
  void interval_read(std::int32_t proc, std::uint32_t addr,
                     const RefTrace::Position& at);

  /// Evicts `victim` from `proc`'s cache at the read `at` of an interval
  /// replay, recording the dirty owner's first eviction in the line's slot.
  template <ProtocolKind P>
  void interval_evict(std::int32_t proc, std::uint32_t victim, const RefTrace::Position& at);

  /// The slot of `line` in the current interval, or null.
  FlushSlot* live_slot(const LineState& line, std::uint32_t line_addr);
  /// Gives `line` the new slot `slot` for the rest of the interval.
  void open_slot(LineState& line, const FlushSlot& slot);
  /// Charges, or with `refund` takes back, how a slot's line settles on top
  /// of every foreign read miss's own fetch: if its reader comes before the
  /// owner's eviction, the flush in place of that reader's fetch; otherwise
  /// the write-back.
  void settle(const FlushSlot& slot, bool refund);

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

  /// LRU bookkeeping for finite caches (capacity_lines > 0): makes the line
  /// `proc`'s most recent one and returns the line it evicts, if any.
  std::optional<std::uint32_t> lru_touch(std::int32_t proc, std::uint32_t line_addr);
  /// Removes `proc`'s copy of a line; a dirty one is written back.
  void evict(LineState& line, std::int32_t proc);

  std::int32_t procs_;
  CoherenceParams params_;
  CoherenceTraffic traffic_;
  std::vector<LineState> dense_;  ///< lines below dense_lines_, grown on demand
  std::uint32_t dense_lines_ = 0;
  int line_shift_ = 0;  ///< log2(line_size)
  std::unordered_map<std::uint32_t, LineState> sparse_;  ///< lines above it
  std::vector<FlushSlot> flush_slots_;  ///< slots opened since the last write
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
