#include "shm/shm_router.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>

#include "grid/cost_array.hpp"
#include "route/cost_model.hpp"
#include "support/assert.hpp"

namespace locus {

namespace {

/// CostView over the single shared array that records shared references
/// straight into the routing processor's stream of the RefTrace; each wire
/// becomes one block of that stream. Reads record nothing: the router
/// writes the cells a per-cell pricer would read through read_tracer(), as
/// runs, and every add() logs its read-modify-write pair.
class TracingView final : public CostView, private ReadTracer {
 public:
  TracingView(CostArray& shared, bool capture) : shared_(shared), capture_(capture) {}

  /// Opens `proc`'s block for the wire it is about to route.
  void begin_wire(std::int16_t proc) {
    if (capture_) trace_.open_block(proc);
  }

  /// Closes the wire's block, stamped across [t0, t0 + duration].
  void flush_wire(SimTime t0, SimTime duration) {
    if (capture_) trace_.close_block(t0, duration);
  }

  RefTrace take_trace() { return std::move(trace_); }

  std::int32_t read(GridPoint p) override { return shared_.read(p); }
  void read_row(std::int32_t channel, std::int32_t x_lo, std::int32_t x_hi,
                std::span<std::int32_t> span_out) override {
    shared_.read_row(channel, x_lo, x_hi, span_out);
  }
  void read_rows(std::int32_t c_lo, std::int32_t c_hi, std::int32_t x_lo,
                 std::int32_t x_hi, std::span<std::int32_t> span_out) override {
    shared_.read_rows(c_lo, c_hi, x_lo, x_hi, span_out);
  }
  ReadTracer* read_tracer() override { return capture_ ? this : nullptr; }

  void add(GridPoint p, std::int32_t d) override {
    note_cell(p, MemOp::kRead);  // increment = load + store
    note_cell(p, MemOp::kWrite);
    if (defer_) {
      LOCUS_ASSERT_MSG(d == 1, "only route commits are deferred");
    } else {
      shared_.add(p, d);
    }
  }

  /// While deferring, add(+1) notes its references but skips the shared
  /// write: the wire's commitment becomes visible only when the executor
  /// applies its stored runs at the wire's finish time.
  void set_defer(bool defer) { defer_ = defer; }

  /// Logs a non-cost-array shared access (the distributed loop counter).
  void note_other(std::uint32_t addr, MemOp op) {
    if (capture_) trace_.push(addr, op);
  }

 private:
  void note_cell(GridPoint p, MemOp op) {
    if (capture_) trace_.push(cost_cell_addr(p.channel, p.x, shared_.channels()), op);
  }

  /// A straight run of cells is a progression in cost_cell_addr: 4 B per
  /// channel step down a column, 4·channels B per column step along a row.
  void read_run(GridPoint from, GridPoint to) override {
    const std::int32_t channels = shared_.channels();
    std::int32_t stride = 0;
    if (from.channel != to.channel) {
      stride = from.channel < to.channel ? 4 : -4;
    } else if (from.x != to.x) {
      stride = (from.x < to.x ? 4 : -4) * channels;
    }
    trace_.push_read_run(cost_cell_addr(from.channel, from.x, channels), stride,
                         static_cast<std::size_t>(manhattan(from, to)) + 1);
  }

  CostArray& shared_;
  bool capture_;
  bool defer_ = false;
  RefTrace trace_;
};

struct ProcState {
  SimTime clock = 0;
  std::size_t cursor = 0;
  const std::vector<WireId>* static_wires = nullptr;
  bool done = false;
};

/// A wire's commitment, applied when the wire finishes: wires routed
/// simultaneously by different processors do not see each other's
/// occupancy — exactly the interference that degrades quality as the
/// processor count grows (paper §5.4). It adds the wire's stored runs,
/// which hold until then: every pending commit lands at the barrier,
/// before the next iteration re-routes its wire.
struct PendingCommit {
  SimTime time;
  std::uint64_t seq;
  WireId wire;
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
  // The trace stores each reference's processor in 16 bits.
  LOCUS_ASSERT(config.procs <= std::numeric_limits<std::int16_t>::max());
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
  TracingView view(result.cost, config.capture_trace);

  obs::RouteSpanObs route_spans;
  route_spans.bind(config.obs);
  if (route_spans) {
    for (std::int32_t p = 0; p < config.procs; ++p) {
      route_spans.trace->set_track_name(p, "proc " + std::to_string(p));
    }
  }
  WireRouter router(circuit.channels(), RouterParams{});

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
      const WireId wire = pending_commits.top().wire;
      add_runs(result.cost, result.routes[static_cast<std::size_t>(wire)].runs, +1);
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
      view.begin_wire(static_cast<std::int16_t>(next));
      WireId wire_id = -1;
      SimTime fetch_cost = 0;
      if (dynamic) {
        // Distributed loop: shared counter fetch-and-increment (traced).
        view.note_other(kLoopCounterAddr, MemOp::kRead);
        view.note_other(kLoopCounterAddr, MemOp::kWrite);
        fetch_cost = TimeModel::kShmReadNs + TimeModel::kShmWriteNs;
        if (loop_counter >= circuit.num_wires()) {
          ps.done = true;
          view.flush_wire(ps.clock, fetch_cost);
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
        rip_cost = static_cast<SimTime>(slot.cell_count()) * TimeModel::kCommitNs;
        ++result.work.ripups;
      }
      view.set_defer(true);
      const RouteWorkStats before = result.work;
      slot = router.route_wire(wire, view, result.work);
      view.set_defer(false);
      const SimTime duration =
          fetch_cost + rip_cost +
          TimeModel::routing_time_ns(result.work.probes - before.probes,
                                     result.work.cells_committed - before.cells_committed,
                                     1);
      view.flush_wire(ps.clock, duration);
      if (route_spans) route_spans.span(next, ps.clock, duration, wire_id, iter);
      ps.clock += duration;
      pending_commits.push(PendingCommit{ps.clock, commit_seq++, wire_id});

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
