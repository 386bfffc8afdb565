// Wormhole-routed interconnect with link contention.
//
// Packet transport follows the paper's CBS model: with no contention and
// one-byte-wide channels, a packet of L bytes travelling D hops takes
//     2·ProcessTime + HopTime·(D + L)
// (ProcessTime at each network interface crossing, one HopTime per hop for
// the head, one HopTime per byte of pipeline drain). Contention is modeled
// at packet granularity: each directed link is busy while a packet's L
// bytes stream across it, and a later packet's head waits for the link to
// free — the dominant effect of wormhole blocking at the low loads these
// workloads generate (flit-level backpressure of upstream links is not
// modeled; DESIGN.md records this simplification). The per-link timing
// discipline itself is pluggable (the constructor's LinkCostParams select a
// LinkCostModel — fixed or M/D/1 queueing; sim/link_cost.hpp); the packet
// plane above it is unchanged.
//
// In-flight packets live in a free-listed arena; events on the queue carry
// only the POD slot id, so scheduling a delivery allocates nothing and the
// event heap stays trivially copyable.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/link_cost.hpp"
#include "sim/packet.hpp"
#include "sim/topology.hpp"

namespace locus {

/// ProcessTime (paper §2.1): one node <-> network copy, charged at each end.
/// HopTime is kHopTimeNs (sim/link_cost.hpp).
inline constexpr SimTime kProcessTimeNs = 2000;

struct NetworkStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;       ///< on-wire bytes, counted once per packet
  std::uint64_t byte_hops = 0;   ///< bytes x hops travelled
  std::uint64_t hops = 0;
  SimTime total_latency_ns = 0;  ///< injection to delivery, summed
  SimTime total_link_wait_ns = 0;
  /// Fault-injected duplicate wire copies (FaultInjector kDuplicate). The
  /// dup path used to be invisible here — only the injector's own tally saw
  /// it; now the network surfaces it next to the traffic it inflates.
  std::uint64_t duplicate_deliveries = 0;
  std::map<std::int32_t, std::uint64_t> bytes_by_type;
};

/// Reliable-delivery hook installed beneath the network's fault handling
/// (msg/transport.hpp implements it). When present, the network delivers
/// every data packet to the application exactly once at its nominal
/// (fault-free) time and hands the fault action to the transport, which
/// simulates the recovery control plane (seqnos, acks, retransmits, dedup)
/// and charges its traffic back through charge_control().
class PacketTransport {
 public:
  virtual ~PacketTransport() = default;
  /// Extra on-wire framing bytes the transport adds to every data packet
  /// (sequence number + piggybacked cumulative ack).
  virtual std::int32_t frame_bytes() const = 0;
  /// Called once per injected data packet, after traffic is charged and the
  /// fault action drawn. `nominal` is the fault-free delivery time; the
  /// application-plane delivery at `nominal` is scheduled by the network
  /// itself, so the transport only tracks the wire-level fate of attempts.
  virtual void on_wire(const Packet& packet, SimTime nominal,
                       FaultInjector::Action action) = 0;
};

/// Transports packets between nodes over the topology, charging simulated
/// time via the shared EventQueue and invoking the delivery callback when a
/// packet is fully received (tail arrived and copied into the node).
class Network {
 public:
  using DeliverFn = std::function<void(const Packet&, SimTime arrival)>;

  /// `link_cost` picks the per-link timing discipline (sim/link_cost.hpp);
  /// the default kFixed is bit-identical to the paper's charge.
  Network(const Topology& topology, LinkCostParams link_cost, EventQueue& queue,
          DeliverFn deliver);

  /// Injects `packet` from its src at time `ready` (the moment the sending
  /// processor finished the send-side ProcessTime copy). Returns the time
  /// the sender's network interface is free for the next injection.
  SimTime inject(Packet packet, SimTime ready);

  /// Parks `packet` in the arena and performs the inject() at simulated time
  /// `ready` — used by senders whose local clock runs ahead of global event
  /// time, so link/NI reservations are claimed in global time order.
  void schedule_inject(Packet packet, SimTime ready);

  /// Installs a fault injector (not owned; may be null). Drops, duplicates,
  /// delays and reorders are applied at the delivery end: the packet's
  /// on-wire traffic and link occupancy are charged normally — the bytes
  /// crossed the network before the fault struck.
  void set_fault_injector(FaultInjector* injector);

  /// Installs a reliable transport (not owned; may be null). With a
  /// transport, inject() adds frame_bytes() to every packet's wire length,
  /// schedules the application delivery at the nominal fault-free time
  /// regardless of the fault action, and forwards the action to the
  /// transport's control plane instead of acting on it itself.
  void set_transport(PacketTransport* transport);

  /// Charges a transport control-plane packet (retransmit or ack) to the
  /// traffic statistics without reserving links: control traffic is modeled
  /// as a dedicated virtual channel, so it never perturbs the foreground
  /// timeline (DESIGN.md §10). Returns the uncontended delivery time
  /// `now + 2·ProcessTime + HopTime·(D + L)`.
  SimTime charge_control(ProcId src, ProcId dst, std::int32_t type,
                         std::int32_t bytes, SimTime now);

  const FaultInjector* fault_injector() const { return injector_; }

  /// Attach observability (null to detach): per-packet latency/size
  /// histograms and — when tracing — an inject
  /// instant on the source track, a deliver instant on the destination
  /// track, and a flow arrow connecting them (plus per-link hop instants
  /// under hop_detail). Deliver instants are stamped at the *nominal*
  /// delivery time computed at injection; fault-injected delays, reorders
  /// and duplicate copies keep their nominal stamp, and dropped packets get
  /// no deliver instant at all.
  void set_obs(obs::Obs* o) { obs_.bind(o); }

  const NetworkStats& stats() const { return stats_; }
  const Topology& topology() const { return topology_; }
  /// The active link cost model, for per-link byte/stall/utilization
  /// inspection (sim/link_cost.hpp).
  const LinkCostModel& link_cost() const { return *cost_; }
  /// Aggregate per-link usage over the elapsed simulated time [0, now].
  LinkUsageSummary link_usage(SimTime now) const { return cost_->summary(now); }
  /// Arena slots currently occupied by in-flight packets (test hook).
  std::size_t packets_in_flight() const;

 private:
  using SlotId = std::uint32_t;
  static constexpr SlotId kNoSlot = static_cast<SlotId>(-1);

  /// One in-flight packet. `refs` counts the scheduled events (and, for a
  /// reorder hold, the held_ entry) that still reference the slot; it is
  /// recycled onto the free list when the count reaches zero. `released`
  /// arbitrates the two racing release paths of a reorder hold.
  struct Slot {
    Packet packet;
    std::uint32_t refs = 0;
    bool released = false;
  };

  SlotId alloc_slot(Packet&& packet, std::uint32_t refs);
  void unref(SlotId id);
  void schedule_delivery(SlotId id, SimTime at);
  void release_held(ProcId dst, SimTime at);

  static void on_deliver(void* ctx, SimTime now, std::uint64_t a, std::uint64_t b);
  static void on_deliver_once(void* ctx, SimTime now, std::uint64_t a,
                              std::uint64_t b);
  static void on_inject(void* ctx, SimTime now, std::uint64_t a, std::uint64_t b);

  const Topology& topology_;
  EventQueue& queue_;
  DeliverFn deliver_;
  NetworkStats stats_;
  FaultInjector* injector_ = nullptr;
  PacketTransport* transport_ = nullptr;
  obs::NetworkObs obs_;
  std::unique_ptr<LinkCostModel> cost_;  ///< per-link timing + accounting
  std::vector<SimTime> ni_free_;    ///< per node injection interface
  std::vector<SlotId> held_;        ///< per dst node: reorder-held packet
  std::vector<Slot> slots_;
  std::vector<SlotId> free_slots_;
  EventQueue::HandlerId h_deliver_;
  EventQueue::HandlerId h_deliver_once_;
  EventQueue::HandlerId h_inject_;
};

}  // namespace locus
