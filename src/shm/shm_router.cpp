#include "shm/shm_router.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>

#include "grid/cost_array.hpp"
#include "support/assert.hpp"

namespace locus {

namespace {

/// CostView over the single shared array that records shared references.
/// Reads are deduplicated per wire (see trace.hpp); every add() logs the
/// read-modify-write pair. Each flushed wire becomes one block of its
/// processor's stream in the RefTrace.
class TracingView final : public CostView {
 public:
  TracingView(CostArray& shared, bool capture, bool dedup_reads)
      : shared_(shared), capture_(capture), dedup_reads_(dedup_reads),
        read_stamp_(static_cast<std::size_t>(shared.size()), 0) {}

  void begin_wire() {
    ++epoch_;
    pending_.clear();
  }

  /// Moves the pending refs into `proc`'s stream as one block, stamped
  /// across [t0, t0 + duration].
  void flush_wire(std::int16_t proc, SimTime t0, SimTime duration) {
    if (capture_) trace_.append_block(proc, t0, duration, pending_);
  }

  RefTrace take_trace() { return std::move(trace_); }

  std::int32_t read(GridPoint p) override {
    note_read(p);
    return shared_.read(p);
  }

  /// Bulk reads are only exact when no trace is captured: while capturing,
  /// every individual read must be noted (the trace is the product), so the
  /// router transparently stays on the per-cell pricing path. Without a
  /// trace the span forwards to the shared array's fast path.
  void read_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                std::span<std::int32_t> span_out) override {
    if (capture_) {
      CostView::read_row(channel, x_lo, x_hi, span_out);  // notes each read
    } else {
      shared_.read_row(channel, x_lo, x_hi, span_out);
    }
  }
  void read_rows(std::int32_t c_lo, std::int32_t c_hi, std::int32_t x_lo,
                 std::int32_t x_hi, std::span<std::int32_t> span_out) override {
    if (capture_) {
      CostView::read_rows(c_lo, c_hi, x_lo, x_hi, span_out);  // notes each read
    } else {
      shared_.read_rows(c_lo, c_hi, x_lo, x_hi, span_out);
    }
  }
  bool supports_bulk_read() const override { return !capture_; }

  void add(GridPoint p, std::int32_t d) override {
    note_read(p);  // increment = load + store
    if (capture_) {
      pending_.push_back({cost_cell_addr(p.channel, p.x, shared_.channels()), MemOp::kWrite});
    }
    if (defer_) {
      LOCUS_ASSERT_MSG(d == 1, "only route commits are deferred");
      deferred_cells_.push_back(p);
    } else {
      shared_.add(p, d);
    }
  }

  /// While deferring, add(+1) buffers instead of applying: the wire's
  /// commitment becomes visible only when the executor applies it at the
  /// wire's finish time.
  void set_defer(bool defer) { defer_ = defer; }

  std::vector<GridPoint> take_deferred() { return std::move(deferred_cells_); }

  /// Logs a non-cost-array shared access (the distributed loop counter).
  void note_other(std::uint32_t addr, MemOp op) {
    if (capture_) pending_.push_back({addr, op});
  }

 private:
  void note_read(GridPoint p) {
    if (!capture_) return;
    if (dedup_reads_) {
      auto idx = static_cast<std::size_t>(shared_.index(p));
      if (read_stamp_[idx] == epoch_) return;
      read_stamp_[idx] = epoch_;
    }
    pending_.push_back({cost_cell_addr(p.channel, p.x, shared_.channels()), MemOp::kRead});
  }

  CostArray& shared_;
  bool capture_;
  bool dedup_reads_;
  bool defer_ = false;
  std::vector<std::uint32_t> read_stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<RefTrace::Entry> pending_;
  std::vector<GridPoint> deferred_cells_;
  RefTrace trace_;
};

struct ProcState {
  SimTime clock = 0;
  std::size_t cursor = 0;
  const std::vector<WireId>* static_wires = nullptr;
  bool done = false;
};

/// Commits/rip-ups that take effect when their wire finishes. Wires being
/// routed simultaneously by different processors do not see each other's
/// occupancy — exactly the interference that degrades quality as the
/// processor count grows (paper §5.4).
struct PendingCommit {
  SimTime time;
  std::uint64_t seq;
  std::vector<GridPoint> cells;
  std::int32_t delta;
};
struct PendingLater {
  bool operator()(const PendingCommit& a, const PendingCommit& b) const {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }
};

/// Publishes a finished run's statistics into the obs registry, once; each
/// counter is a copy of a field of the result.
void publish_obs(obs::Obs& o, const ShmRunResult& r) {
  obs::CounterRegistry& reg = o.counters();
  const auto put = [&reg](const char* name, auto value) {
    reg.add(reg.counter(name), static_cast<std::uint64_t>(value));
  };
  put("route.routes_evaluated", r.work.routes_evaluated);
  put("route.probes", r.work.probes);
  put("shm.wires_routed", r.work.wires_routed);
  put("shm.cells_committed", r.work.cells_committed);
  put("shm.ripups", r.work.ripups);
  put("shm.trace_refs", r.trace.size());
}

}  // namespace

ShmRunResult run_shared_memory(const Circuit& circuit, const ShmConfig& config) {
  LOCUS_ASSERT(config.procs >= 1);
  LOCUS_ASSERT(config.iterations >= 1);
  const bool dynamic = !config.assignment.has_value();
  if (!dynamic) {
    LOCUS_ASSERT(config.assignment->num_procs() == config.procs);
    LOCUS_ASSERT(assignment_is_valid(*config.assignment, circuit));
  }

  ShmRunResult result{.circuit_height = 0,
                      .occupancy_factor = 0,
                      .completion_ns = 0,
                      .work = {},
                      .proc_finish_ns = {},
                      .trace = {},
                      .routes = {},
                      .cost = CostArray(circuit.channels(), circuit.grids())};
  result.routes.resize(static_cast<std::size_t>(circuit.num_wires()));
  result.proc_finish_ns.assign(static_cast<std::size_t>(config.procs), 0);

  // The one shared array everyone routes against is the result slot itself.
  TracingView view(result.cost, config.capture_trace, config.trace_dedup_reads);
  const TimeModel& tm = config.time;

  obs::RouteSpanObs route_spans;
  route_spans.bind(config.obs);
  if (route_spans) {
    for (std::int32_t p = 0; p < config.procs; ++p) {
      route_spans.trace->set_track_name(p, "proc " + std::to_string(p));
    }
  }
  WireRouter router(circuit.channels(), config.router);

  std::vector<ProcState> procs(static_cast<std::size_t>(config.procs));
  if (!dynamic) {
    for (std::int32_t p = 0; p < config.procs; ++p) {
      procs[static_cast<std::size_t>(p)].static_wires =
          &config.assignment->wires_per_proc[static_cast<std::size_t>(p)];
    }
  }

  std::priority_queue<PendingCommit, std::vector<PendingCommit>, PendingLater>
      pending_commits;
  std::uint64_t commit_seq = 0;
  auto apply_pending_until = [&](SimTime t) {
    while (!pending_commits.empty() && pending_commits.top().time <= t) {
      const PendingCommit& pc = pending_commits.top();
      for (const GridPoint& p : pc.cells) result.cost.add(p, pc.delta);
      pending_commits.pop();
    }
  };

  SimTime barrier_time = 0;
  for (std::int32_t iter = 0; iter < config.iterations; ++iter) {
    const bool last = (iter + 1 == config.iterations);
    std::int32_t loop_counter = 0;  // dynamic distributed loop index
    for (ProcState& ps : procs) {
      ps.clock = barrier_time;
      ps.cursor = 0;
      ps.done = false;
    }

    for (;;) {
      // Schedule the least-advanced processor that still has work.
      std::int32_t next = -1;
      SimTime best = std::numeric_limits<SimTime>::max();
      for (std::int32_t p = 0; p < config.procs; ++p) {
        const ProcState& ps = procs[static_cast<std::size_t>(p)];
        if (!ps.done && ps.clock < best) {
          best = ps.clock;
          next = p;
        }
      }
      if (next < 0) break;
      ProcState& ps = procs[static_cast<std::size_t>(next)];

      // Obtain a wire subscript.
      view.begin_wire();
      WireId wire_id = -1;
      SimTime fetch_cost = 0;
      if (dynamic) {
        // Distributed loop: shared counter fetch-and-increment (traced).
        view.note_other(kLoopCounterAddr, MemOp::kRead);
        view.note_other(kLoopCounterAddr, MemOp::kWrite);
        fetch_cost = tm.shm_read_ns + tm.shm_write_ns;
        if (loop_counter >= circuit.num_wires()) {
          ps.done = true;
          view.flush_wire(static_cast<std::int16_t>(next), ps.clock, fetch_cost);
          ps.clock += fetch_cost;
          result.proc_finish_ns[static_cast<std::size_t>(next)] = ps.clock;
          continue;
        }
        wire_id = loop_counter++;
      } else {
        if (ps.cursor >= ps.static_wires->size()) {
          ps.done = true;
          result.proc_finish_ns[static_cast<std::size_t>(next)] = ps.clock;
          continue;
        }
        wire_id = (*ps.static_wires)[ps.cursor++];
      }

      // Make every earlier-finished wire visible, then rip up and re-route
      // against the shared array. The rip-up applies immediately (the
      // router must not be repelled by its own previous path); the new
      // commitment becomes visible at the wire's finish time so wires in
      // flight on other processors do not see it.
      apply_pending_until(ps.clock);
      const Wire& wire = circuit.wire(wire_id);
      WireRoute& slot = result.routes[static_cast<std::size_t>(wire_id)];
      SimTime rip_cost = 0;
      if (slot.routed()) {
        WireRouter::rip_up(slot, view);
        rip_cost = static_cast<SimTime>(slot.cells.size()) * tm.commit_ns;
        ++result.work.ripups;
      }
      view.set_defer(true);
      const RouteWorkStats before = result.work;
      slot = router.route_wire(wire, view, result.work);
      view.set_defer(false);
      const SimTime duration =
          fetch_cost + rip_cost +
          tm.routing_time_ns(result.work.probes - before.probes,
                             result.work.cells_committed - before.cells_committed, 1);
      view.flush_wire(static_cast<std::int16_t>(next), ps.clock, duration);
      if (route_spans) route_spans.span(next, ps.clock, duration, wire_id, iter);
      ps.clock += duration;
      pending_commits.push(
          PendingCommit{ps.clock, commit_seq++, view.take_deferred(), +1});

      if (last) {
        // On the shared array the decision-time price is the true price.
        result.occupancy_factor += slot.path_cost;
      }
    }

    // Barrier: everyone waits for the slowest (paper §3), and every
    // commitment lands before the next iteration starts.
    for (const ProcState& ps : procs) barrier_time = std::max(barrier_time, ps.clock);
    apply_pending_until(barrier_time);
    LOCUS_ASSERT(pending_commits.empty());
  }

  result.completion_ns = barrier_time;
  result.circuit_height = circuit_height(result.cost);
  LOCUS_ASSERT(result.cost ==
               rebuild_cost(circuit.channels(), circuit.grids(), result.routes));
  result.trace = view.take_trace();
  if (config.obs != nullptr) publish_obs(*config.obs, result);
  return result;
}

}  // namespace locus
