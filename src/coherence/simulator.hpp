// Trace-driven coherence simulation with infinite caches.
//
// Per cache line we track which processors hold a clean copy (a bitmask)
// and which single processor, if any, holds it dirty. Caches are infinite
// (paper footnote 3: no capacity misses), so state only changes through
// the protocol events themselves.
//
// Line state lives in a dense table indexed by line address, up to
// kDenseAddrBound bytes of address space — the cost array's range. The few
// shared objects above the bound (the distributed loop counter) go to a
// small side map.
//
// Replay dispatch: replay() and sweep_line_sizes() choose the protocol and
// finite versus infinite caches once per call, size the line table for the
// trace's highest address, then run a handler specialised at compile time
// for that pair, so the per-reference loop carries no protocol switch, no
// LRU test and no table growth. access() routes single references to the
// same handlers (DESIGN.md §7.6).
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
    std::int32_t dirty_owner = -1; ///< proc holding it dirty, or -1
    bool exclusive_clean = false;  ///< MESI E state (single clean holder)
  };

  /// Replays `trace` into every simulator of `sims` in turn, reference by
  /// reference. All of them share one protocol and capacity.
  static void replay_all(std::span<CoherenceSim> sims, const RefTrace& trace);

  /// Applies one reference with the protocol and cache kind fixed at compile
  /// time. The line must already be covered by the table (cover()); the
  /// caller counts the access.
  template <ProtocolKind P, bool kFinite>
  void step(std::int32_t proc, std::uint32_t addr, MemOp op);

  /// Grows the dense table to cover byte address `addr` (a no-op above
  /// kDenseAddrBound, whose lines live in the side map).
  void cover(std::uint32_t addr);

  /// The state of line `line_addr`, created (untouched) on first use of a
  /// side-map line. The reference is valid until the next call.
  LineState& line_state(std::uint32_t line_addr) {
    return line_addr < dense_.size() ? dense_[line_addr] : sparse_[line_addr];
  }

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
  std::vector<LineState> dense_;  ///< lines below dense_lines_, grown by cover()
  std::uint32_t dense_lines_ = 0;
  int line_shift_ = 0;  ///< log2(line_size)
  std::unordered_map<std::uint32_t, LineState> sparse_;  ///< lines above it
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
