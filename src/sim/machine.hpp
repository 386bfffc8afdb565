// The simulated multicomputer: processors + network + execution semantics.
//
// Each Node is a sequential processor program executed as a state machine:
//   * on_step() performs one unit of work (for the router node: route one
//     wire plus its update sends) and charges time via NodeApi::advance();
//   * packets are delivered only when the node is between steps — the
//     paper's "processors only check for newly received messages between
//     routing wires" semantics (§4.2);
//   * a node may declare itself blocked() awaiting a specific packet
//     (blocking receiver-initiated updates); it then sleeps until the next
//     arrival re-checks the condition.
// The engine is a sequential DES, so runs are deterministic.
//
// Hot-path layout: each node's pending arrivals live in a sorted ring
// buffer rather than a per-node priority queue. Deliveries are invoked in
// global (time, sequence) event order, so per-node arrivals are already
// sorted when they are pushed — the ring just appends at the tail and pops
// at the head, no heap discipline needed; push asserts that order.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/packet.hpp"
#include "sim/topology.hpp"
#include "support/assert.hpp"

namespace locus {

class Machine;

/// Per-node handle through which node programs observe and spend time.
class NodeApi {
 public:
  SimTime now() const;
  ProcId self() const { return self_; }
  std::int32_t num_procs() const;

  /// Consumes `ns` of local compute time.
  void advance(SimTime ns);

  /// Sends a packet (src is filled in); charges the send-side ProcessTime
  /// plus per-byte packing cost supplied by the caller beforehand via
  /// advance(). Returns immediately (asynchronous send).
  void send(ProcId dst, std::int32_t type, std::int32_t bytes,
            std::shared_ptr<const PacketPayload> payload);

 private:
  friend class Machine;
  NodeApi(Machine& machine, ProcId self) : machine_(&machine), self_(self) {}
  Machine* machine_;
  ProcId self_;
};

/// A processor program.
class Node {
 public:
  virtual ~Node() = default;

  /// Called once at time zero, before any step.
  virtual void on_start(NodeApi& api) { static_cast<void>(api); }

  /// Handles one delivered packet (charge reception cost via api.advance()).
  virtual void on_packet(NodeApi& api, const Packet& packet) = 0;

  /// Performs one unit of work. Returns false when no work remains (the
  /// node stays alive to serve future packets).
  virtual bool on_step(NodeApi& api) = 0;

  /// True while the node must not step (waiting for a response packet).
  virtual bool blocked() const { return false; }
};

struct MachineStats {
  /// Time each node finished its last own work step.
  std::vector<SimTime> finish_time;
  /// max over nodes of finish_time — the run's execution time.
  SimTime completion_time = 0;
  /// Time the last event (including trailing deliveries) executed.
  SimTime drain_time = 0;
  std::uint64_t events = 0;  ///< events dispatched (published as sim.events)
};

class Machine {
 public:
  /// Takes its own copy of the topology: Machine and its Network outlive
  /// any caller-side temporary.
  Machine(Topology topology, LinkCostParams link_cost);

  /// Installs the program for one node (must cover every node before run()).
  void set_node(ProcId proc, std::unique_ptr<Node> node);

  /// Arms deterministic fault injection for this run (call before run()).
  /// Packet faults hit the network's delivery end; node stalls are applied
  /// whenever a node is scheduled. A all-zero-rate plan is behaviourally
  /// identical to never calling this.
  void set_fault_plan(const FaultPlan& plan);

  /// Fault decisions taken so far (zeroes when no plan was armed).
  FaultStats fault_stats() const;

  /// Runs to completion (event queue empty). Returns stats; network traffic
  /// is available via network().stats().
  MachineStats run();

  /// Attach observability (null to detach) to the whole machine: the event
  /// queue, the network, and per-node compute spans (one 'X' span per
  /// scheduling round that advanced the node's clock, on a track named
  /// "proc N"). Counters are not bumped here: the run's MachineStats and
  /// NetworkStats are published once at its end. Call before run().
  void set_obs(obs::Obs* o);

  const Network& network() const { return *network_; }
  /// Mutable network access for installing run-level hooks (a reliable
  /// transport) before run().
  Network& network_mut() { return *network_; }
  /// The armed injector (null when no plan) — shared with hooks that draw
  /// their own fault decisions (the transport control plane).
  FaultInjector* fault_injector() { return injector_.get(); }
  /// The installed program for `proc` (for post-run inspection).
  Node* node(ProcId proc) { return state(proc).program.get(); }
  const Topology& topology() const { return topology_; }
  EventQueue& queue() { return queue_; }

 private:
  friend class NodeApi;

  struct Arrival {
    SimTime time;
    std::uint64_t seq;
    Packet packet;
  };

  /// FIFO ring of arrivals in (time, seq) order. The network delivers
  /// only from its delivery events, at the event's time, and arrival_seq_
  /// only grows, so every push lands at or after the tail.
  class ArrivalRing {
   public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    const Arrival& front() const { return slots_[head_]; }

    void pop_front() {
      slots_[head_].packet.payload.reset();  // drop the payload now
      head_ = next(head_);
      --count_;
    }

    void push(Arrival&& arrival) {
      LOCUS_ASSERT(count_ == 0 || slots_[index(count_ - 1)].time <= arrival.time);
      if (count_ == slots_.size()) grow();
      slots_[index(count_)] = std::move(arrival);
      ++count_;
    }

   private:
    std::size_t next(std::size_t i) const {
      return i + 1 == slots_.size() ? 0 : i + 1;
    }
    std::size_t index(std::size_t offset) const {
      const std::size_t i = head_ + offset;
      return i >= slots_.size() ? i - slots_.size() : i;
    }
    void grow();

    std::vector<Arrival> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  struct NodeState {
    std::unique_ptr<Node> program;
    SimTime clock = 0;           ///< local time: busy until here
    bool resume_pending = false;
    SimTime resume_at = 0;       ///< time of the pending resume event
    bool work_done = false;      ///< on_step returned false at least once
    SimTime finish_time = 0;
    ArrivalRing inbox;
  };

  void deliver(const Packet& packet, SimTime arrival);
  void schedule_resume(ProcId proc, SimTime at);
  static void on_resume_event(void* ctx, SimTime now, std::uint64_t a,
                              std::uint64_t b);
  void resume(ProcId proc);

  NodeState& state(ProcId proc) { return nodes_[static_cast<std::size_t>(proc)]; }

  Topology topology_;
  EventQueue queue_;
  EventQueue::HandlerId h_resume_ = 0;
  std::unique_ptr<Network> network_;
  std::unique_ptr<FaultInjector> injector_;
  std::vector<NodeState> nodes_;
  std::uint64_t arrival_seq_ = 0;
  ProcId running_ = -1;  ///< node currently executing (api target)

  obs::TraceSink* trace_ = nullptr;  ///< compute spans; null when not tracing
  obs::TraceSink::StrId trace_cat_node_ = 0;
  obs::TraceSink::StrId trace_n_compute_ = 0;
};

}  // namespace locus
