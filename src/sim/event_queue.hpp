// Deterministic discrete-event core.
//
// Events execute in (time, insertion sequence) order, so simultaneous events
// run FIFO and every simulation is exactly reproducible. Times are
// nanoseconds of simulated machine time.
//
// The heap holds only POD events: a handler id registered once per consumer
// plus two 64-bit operands (typically a target id and a packet-arena slot).
// Dispatch is one indexed load and an indirect call — no per-event heap
// allocation and no std::function in the hot loop.
//
// The pending set is an indexed 4-ary implicit heap rather than the binary
// std::priority_queue: half the tree depth, and the four children of node i
// are consecutive slots (4i+1..4i+4) — 32-byte events, so one level's
// children span exactly two cache lines where a binary heap's descent
// touches a fresh line per level. Pop uses bottom-up deletion (hole sifted
// to a leaf along min children, tail element sifted back up) so the descent
// costs one 4-way min per level instead of paying an extra comparison
// against the relocated tail element at every level. The comparison key
// (time, then sequence) is a strict total order — no two events ever
// compare equal — so the heap pops in exactly the same order as any other
// correct priority queue and the simulation stays bit-reproducible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace locus {

using SimTime = std::int64_t;  // nanoseconds

class EventQueue {
 public:
  using HandlerId = std::uint16_t;
  /// Handler signature: `ctx` is the pointer given at registration, `now` the
  /// event's time, `a`/`b` the operands given to schedule().
  using EventHandler = void (*)(void* ctx, SimTime now, std::uint64_t a,
                                std::uint64_t b);

  /// Registers a dispatch target once; the returned id is valid for the
  /// queue's lifetime. Handlers are expected at setup time only.
  HandlerId add_handler(EventHandler fn, void* ctx);

  /// Schedules a POD event at absolute simulated time `time` (>= now()).
  void schedule(SimTime time, HandlerId handler, std::uint64_t a = 0,
                std::uint64_t b = 0);

  /// Runs events until the queue is empty. Returns the time of the last
  /// event executed (0 if none ran).
  SimTime run();

  /// Runs until empty or `limit` events, whichever first; returns the number
  /// executed (a safety valve against accidental non-termination in tests).
  std::size_t run_bounded(std::size_t limit);

  SimTime now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }
  /// High-water mark of pending events (queue depth) over the run so far.
  std::size_t peak_pending() const { return peak_pending_; }

  /// Attach observability (null to detach): samples the `sim.queue_depth`
  /// histogram at every dispatch. The dispatch count itself is executed(),
  /// published as `sim.events` from MachineStats at the end of an MP run.
  void set_obs(obs::Obs* o) { obs_.bind(o); }

 private:
  struct Event {
    SimTime time;
    /// (sequence << 16) | handler id: the sequence is unique per event, so
    /// ordering by this packed key is ordering by sequence, and the pack
    /// keeps the event at 32 bytes (two per cache line).
    std::uint64_t key;
    std::uint64_t a;
    std::uint64_t b;

    HandlerId handler() const { return static_cast<HandlerId>(key & 0xFFFF); }
  };
  static_assert(std::is_trivially_copyable_v<Event>,
                "events must pop from the heap without a const_cast move");
  static_assert(sizeof(Event) == 32,
                "heap layout math (two events per cache line) assumes this");

  /// Indexed 4-ary min-heap over (time, seq). Children of slot i live at
  /// 4i+1..4i+4; the strict (time, seq) total order makes pop order unique.
  class EventHeap {
   public:
    bool empty() const { return slots_.empty(); }
    std::size_t size() const { return slots_.size(); }

    void push(const Event& ev) {
      slots_.push_back(ev);
      sift_up(slots_.size() - 1);
    }

    const Event& top() const { return slots_[0]; }

    void pop() {
      if (slots_.size() == 1) {
        slots_.pop_back();
        return;
      }
      // Bottom-up deletion: walk the root hole down to a leaf along min
      // children (one 4-way min per level), then drop the tail element into
      // the hole and sift it up. The tail almost always belongs near the
      // leaves, so the short sift-up beats paying a compare against it at
      // every level of a classic sift-down.
      const Event moved = slots_.back();
      slots_.pop_back();
      const std::size_t n = slots_.size();
      std::size_t hole = 0;
      std::size_t first_child = 1;
      while (first_child < n) {
        const std::size_t end_child = std::min(first_child + 4, n);
        std::size_t best = first_child;
        for (std::size_t c = first_child + 1; c < end_child; ++c) {
          if (before(slots_[c], slots_[best])) best = c;
        }
        slots_[hole] = slots_[best];
        hole = best;
        first_child = 4 * hole + 1;
      }
      slots_[hole] = moved;
      sift_up(hole);
    }

   private:
    static bool before(const Event& a, const Event& b) {
      return a.time != b.time ? a.time < b.time : a.key < b.key;
    }

    void sift_up(std::size_t i) {
      const Event ev = slots_[i];
      while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!before(ev, slots_[parent])) break;
        slots_[i] = slots_[parent];
        i = parent;
      }
      slots_[i] = ev;
    }

    std::vector<Event> slots_;
  };

  struct HandlerEntry {
    EventHandler fn;
    void* ctx;
  };

  /// The one dispatch loop both run() and run_bounded() share, so obs
  /// sampling and peak-tracking cannot drift between them. Returns the
  /// number of events executed (<= limit).
  std::size_t run_loop(std::size_t limit);

  void dispatch(const Event& ev);

  EventHeap heap_;
  std::vector<HandlerEntry> handlers_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t peak_pending_ = 0;
  obs::QueueObs obs_;
};

}  // namespace locus
