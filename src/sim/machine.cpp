#include "sim/machine.hpp"

#include <algorithm>
#include <utility>

#include "support/assert.hpp"

namespace locus {

SimTime NodeApi::now() const {
  return machine_->state(self_).clock;
}

std::int32_t NodeApi::num_procs() const { return machine_->topology_.num_nodes(); }

void NodeApi::advance(SimTime ns) {
  LOCUS_ASSERT(ns >= 0);
  machine_->state(self_).clock += ns;
}

void Machine::ArrivalRing::grow() {
  // Linearize into a fresh buffer: entries [head_, head_+count_) move to
  // [0, count_). Doubling keeps pushes amortized O(1).
  std::vector<Arrival> bigger(slots_.empty() ? 8 : slots_.size() * 2);
  for (std::size_t i = 0; i < count_; ++i) {
    bigger[i] = std::move(slots_[index(i)]);
  }
  slots_ = std::move(bigger);
  head_ = 0;
}

void NodeApi::send(ProcId dst, std::int32_t type, std::int32_t bytes,
                   std::shared_ptr<const PacketPayload> payload) {
  // Send-side ProcessTime: the processor is busy copying the message to the
  // network interface (paper §2.1).
  advance(kProcessTimeNs);
  Packet packet;
  packet.src = self_;
  packet.dst = dst;
  packet.type = type;
  packet.bytes = bytes;
  packet.payload = std::move(payload);
  // The node's local clock can run ahead of global event time (a whole
  // routing step executes inside one resume event), so the injection is
  // scheduled at `ready` rather than performed immediately: link and NI
  // reservations must be claimed in global time order or an early packet
  // could queue behind a chronologically later one. The packet parks in the
  // network's arena until then (no closure on the event heap).
  machine_->network_->schedule_inject(std::move(packet),
                                      machine_->state(self_).clock);
}

Machine::Machine(Topology topology, LinkCostParams link_cost)
    : topology_(std::move(topology)),
      nodes_(static_cast<std::size_t>(topology_.num_nodes())) {
  h_resume_ = queue_.add_handler(&Machine::on_resume_event, this);
  network_ = std::make_unique<Network>(
      topology_, link_cost, queue_,
      [this](const Packet& p, SimTime arrival) { deliver(p, arrival); });
}

void Machine::set_node(ProcId proc, std::unique_ptr<Node> node) {
  LOCUS_ASSERT(proc >= 0 && proc < topology_.num_nodes());
  state(proc).program = std::move(node);
}

void Machine::set_fault_plan(const FaultPlan& plan) {
  injector_ = std::make_unique<FaultInjector>(plan);
  network_->set_fault_injector(injector_.get());
}

FaultStats Machine::fault_stats() const {
  return injector_ ? injector_->stats() : FaultStats{};
}

void Machine::set_obs(obs::Obs* o) {
  queue_.set_obs(o);
  network_->set_obs(o);
  trace_ = o != nullptr ? o->trace() : nullptr;
  if (trace_ == nullptr) return;
  trace_cat_node_ = trace_->intern("node");
  trace_n_compute_ = trace_->intern("compute");
  for (std::int32_t p = 0; p < topology_.num_nodes(); ++p) {
    trace_->set_track_name(p, "proc " + std::to_string(p));
  }
}

void Machine::deliver(const Packet& packet, SimTime arrival) {
  NodeState& st = state(packet.dst);
  st.inbox.push(Arrival{arrival, arrival_seq_++, packet});
  // Wake the node: if it is mid-wire (clock > arrival) the resume lands at
  // its next between-wires boundary; if idle, at the arrival itself.
  schedule_resume(packet.dst, std::max(arrival, st.clock));
}

void Machine::schedule_resume(ProcId proc, SimTime at) {
  NodeState& st = state(proc);
  at = std::max(at, queue_.now());
  if (st.resume_pending && st.resume_at <= at) return;
  st.resume_pending = true;
  st.resume_at = at;
  queue_.schedule(at, h_resume_, static_cast<std::uint64_t>(proc),
                  static_cast<std::uint64_t>(at));
}

void Machine::on_resume_event(void* ctx, SimTime /*now*/, std::uint64_t a,
                              std::uint64_t b) {
  auto* self = static_cast<Machine*>(ctx);
  const auto proc = static_cast<ProcId>(a);
  const auto at = static_cast<SimTime>(b);
  NodeState& s = self->state(proc);
  if (!s.resume_pending || s.resume_at != at) return;  // superseded
  self->resume(proc);
}

void Machine::resume(ProcId proc) {
  NodeState& st = state(proc);
  st.resume_pending = false;
  st.clock = std::max(st.clock, queue_.now());
  if (injector_ != nullptr) {
    // An injected stall costs the node simulated time before it does any
    // work this scheduling round (packets that arrive meanwhile queue up
    // normally and are delivered below once the stall has passed).
    st.clock += injector_->stall();
  }
  NodeApi api(*this, proc);
  running_ = proc;
  const SimTime round_start = st.clock;
  // One compute span per scheduling round that advanced the node's clock.
  auto trace_round = [&] {
    if (trace_ != nullptr && st.clock > round_start) {
      trace_->complete(proc, trace_cat_node_, trace_n_compute_, round_start,
                       st.clock - round_start);
    }
  };

  // Deliver everything that has arrived by the node's current local time;
  // reception handlers advance the clock, which can make further arrivals
  // due, so re-check.
  while (!st.inbox.empty() && st.inbox.front().time <= st.clock) {
    Packet packet = std::move(st.inbox.front().packet);
    st.inbox.pop_front();
    st.program->on_packet(api, packet);
  }

  if (st.program->blocked()) {
    // Sleep until the next arrival (already queued or delivered later).
    if (!st.inbox.empty()) {
      schedule_resume(proc, st.inbox.front().time);
    }
    trace_round();
    running_ = -1;
    return;
  }

  const bool did_work = st.program->on_step(api);
  trace_round();
  if (did_work) {
    // A node can find new work after having reported none (e.g. a dynamic
    // wire-queue owner unblocked by an arriving request).
    st.work_done = false;
    schedule_resume(proc, st.clock);
  } else {
    if (!st.work_done) {
      st.work_done = true;
      st.finish_time = st.clock;
    }
    // Idle; future arrivals must still wake us (e.g. to answer requests).
    if (!st.inbox.empty()) {
      schedule_resume(proc, std::max(st.clock, st.inbox.front().time));
    }
  }
  running_ = -1;
}

MachineStats Machine::run() {
  for (std::size_t p = 0; p < nodes_.size(); ++p) {
    LOCUS_ASSERT_MSG(nodes_[p].program != nullptr, "node program missing");
    NodeApi api(*this, static_cast<ProcId>(p));
    running_ = static_cast<ProcId>(p);
    nodes_[p].program->on_start(api);
    running_ = -1;
    schedule_resume(static_cast<ProcId>(p), nodes_[p].clock);
  }
  const SimTime last = queue_.run();

  MachineStats stats;
  stats.finish_time.reserve(nodes_.size());
  for (NodeState& st : nodes_) {
    LOCUS_ASSERT_MSG(!st.program->blocked(),
                     "deadlock: node still blocked at end of simulation");
    if (!st.work_done) {
      // Node never reported running out of work (e.g. pure reactive node).
      st.finish_time = st.clock;
    }
    stats.finish_time.push_back(st.finish_time);
    stats.completion_time = std::max(stats.completion_time, st.finish_time);
  }
  stats.drain_time = last;
  stats.events = queue_.executed();
  return stats;
}

}  // namespace locus
