#include "sim/network.hpp"

#include <algorithm>
#include <utility>

#include "support/assert.hpp"

namespace locus {

Network::Network(const Topology& topology, LinkCostParams link_cost, EventQueue& queue,
                 DeliverFn deliver)
    : topology_(topology), queue_(queue), deliver_(std::move(deliver)),
      cost_(LinkCostModel::make(topology, link_cost)),
      ni_free_(static_cast<std::size_t>(topology.num_nodes()), 0),
      held_(static_cast<std::size_t>(topology.num_nodes()), kNoSlot),
      h_deliver_(queue.add_handler(&Network::on_deliver, this)),
      h_deliver_once_(queue.add_handler(&Network::on_deliver_once, this)),
      h_inject_(queue.add_handler(&Network::on_inject, this)) {}

void Network::set_fault_injector(FaultInjector* injector) { injector_ = injector; }

void Network::set_transport(PacketTransport* transport) { transport_ = transport; }

SimTime Network::charge_control(ProcId src, ProcId dst, std::int32_t type,
                                std::int32_t bytes, SimTime now) {
  LOCUS_ASSERT(src >= 0 && src < topology_.num_nodes());
  LOCUS_ASSERT(dst >= 0 && dst < topology_.num_nodes());
  LOCUS_ASSERT(src != dst);
  LOCUS_ASSERT(bytes > 0);
  const std::int64_t L = bytes;
  const std::vector<LinkId> path = topology_.route(src, dst);
  const auto D = static_cast<std::int64_t>(path.size());
  const SimTime latency =
      2 * kProcessTimeNs + (D + L) * kHopTimeNs;

  stats_.packets += 1;
  stats_.bytes += static_cast<std::uint64_t>(L);
  stats_.byte_hops += static_cast<std::uint64_t>(L) * path.size();
  stats_.hops += path.size();
  stats_.total_latency_ns += latency;
  stats_.bytes_by_type[type] += static_cast<std::uint64_t>(L);
  // Per-link byte accounting only (no link reservation — control traffic
  // rides its own virtual channel), so sum(link_bytes) tracks byte_hops
  // exactly even with a transport's control plane active.
  for (const LinkId& link : path) {
    cost_->account(topology_.link_index(link), L);
  }

  if (obs_) {
    auto& reg = obs_.obs->counters();
    reg.observe(obs_.latency_ns, static_cast<std::uint64_t>(latency));
    reg.observe(obs_.packet_bytes, static_cast<std::uint64_t>(L));
  }
  return now + latency;
}

std::size_t Network::packets_in_flight() const {
  return slots_.size() - free_slots_.size();
}

Network::SlotId Network::alloc_slot(Packet&& packet, std::uint32_t refs) {
  SlotId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = static_cast<SlotId>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[id];
  slot.packet = std::move(packet);
  slot.refs = refs;
  slot.released = false;
  return id;
}

void Network::unref(SlotId id) {
  Slot& slot = slots_[id];
  LOCUS_ASSERT(slot.refs > 0);
  if (--slot.refs == 0) {
    slot.packet.payload.reset();  // drop the payload now, not at reuse time
    free_slots_.push_back(id);
  }
}

void Network::schedule_delivery(SlotId id, SimTime at) {
  queue_.schedule(at, h_deliver_, id);
}

void Network::on_deliver(void* ctx, SimTime now, std::uint64_t a, std::uint64_t) {
  auto* self = static_cast<Network*>(ctx);
  const auto id = static_cast<SlotId>(a);
  self->deliver_(self->slots_[id].packet, now);
  self->unref(id);
}

void Network::on_deliver_once(void* ctx, SimTime now, std::uint64_t a,
                              std::uint64_t) {
  auto* self = static_cast<Network*>(ctx);
  const auto id = static_cast<SlotId>(a);
  Slot& slot = self->slots_[id];
  if (!slot.released) {
    slot.released = true;
    self->deliver_(slot.packet, now);
  }
  self->unref(id);
}

void Network::on_inject(void* ctx, SimTime /*now*/, std::uint64_t a,
                        std::uint64_t b) {
  auto* self = static_cast<Network*>(ctx);
  const auto id = static_cast<SlotId>(a);
  Packet packet = std::move(self->slots_[id].packet);
  self->unref(id);
  self->inject(std::move(packet), static_cast<SimTime>(b));
}

void Network::schedule_inject(Packet packet, SimTime ready) {
  const SlotId id = alloc_slot(std::move(packet), 1);
  queue_.schedule(ready, h_inject_, id, static_cast<std::uint64_t>(ready));
}

void Network::release_held(ProcId dst, SimTime at) {
  SlotId& slot = held_[static_cast<std::size_t>(dst)];
  if (slot == kNoSlot) return;
  // The held_ entry's reference transfers to the release event.
  queue_.schedule(at, h_deliver_once_, slot);
  slot = kNoSlot;
}

SimTime Network::inject(Packet packet, SimTime ready) {
  LOCUS_ASSERT(packet.src >= 0 && packet.src < topology_.num_nodes());
  LOCUS_ASSERT(packet.dst >= 0 && packet.dst < topology_.num_nodes());
  LOCUS_ASSERT_MSG(packet.src != packet.dst, "self-send must bypass the network");
  LOCUS_ASSERT(packet.bytes > 0);

  // With a reliable transport installed every data packet carries its frame
  // (seqno + piggybacked ack) on the wire; the application-level byte count
  // in packet.bytes — and thus the receiver's unpack cost — is unchanged.
  const std::int64_t L =
      packet.bytes + (transport_ != nullptr ? transport_->frame_bytes() : 0);
  const std::vector<LinkId> path = topology_.route(packet.src, packet.dst);
  LOCUS_ASSERT(!path.empty());

  // The injection interface serializes back-to-back sends from one node.
  SimTime& ni = ni_free_[static_cast<std::size_t>(packet.src)];
  const SimTime inject_at = std::max(ready, ni);

  // Head traversal under the configured per-link discipline: cross() grants
  // the head the link at some start >= its arrival and returns the head's
  // exit (start + HopTime), accumulating contention into `waited` and the
  // per-link byte/busy/stall accounting as it goes.
  SimTime head = inject_at;
  SimTime waited = 0;
  for (const LinkId& link : path) {
    head = cost_->cross(topology_.link_index(link), head, L, waited);
    if (obs_) {
      if (obs::TraceSink* t = obs_.obs->trace(); t != nullptr && t->hop_detail()) {
        t->instant(packet.src, obs_.cat_net, obs_.n_hop,
                   head - kHopTimeNs, obs_.a_link,
                   topology_.link_index(link), obs_.a_bytes, L);
      }
    }
  }

  // Tail drains into the destination, then the receive-side copy runs. With
  // no contention this yields exactly the paper's 2·ProcessTime +
  // HopTime·(D + L) once both ProcessTime charges are counted.
  const SimTime tail_arrival = head + L * kHopTimeNs;
  const SimTime delivered = tail_arrival + kProcessTimeNs;

  ni = inject_at + L * kHopTimeNs;  // injection pipeline busy for L bytes

  stats_.packets += 1;
  stats_.bytes += static_cast<std::uint64_t>(L);
  stats_.byte_hops += static_cast<std::uint64_t>(L) * path.size();
  stats_.hops += path.size();
  stats_.total_latency_ns += delivered - ready;
  stats_.total_link_wait_ns += waited;
  stats_.bytes_by_type[packet.type] += static_cast<std::uint64_t>(L);

  // Fault injection happens at the delivery end; the traffic above was
  // already charged (the bytes crossed the network before the fault).
  FaultInjector::Action action = FaultInjector::Action::kDeliver;
  if (injector_ != nullptr) action = injector_->packet_action(packet.type);
  if (action == FaultInjector::Action::kDuplicate) ++stats_.duplicate_deliveries;

  if (obs_) {
    auto& reg = obs_.obs->counters();
    reg.observe(obs_.latency_ns, static_cast<std::uint64_t>(delivered - ready));
    reg.observe(obs_.packet_bytes, static_cast<std::uint64_t>(L));
    if (obs::TraceSink* t = obs_.obs->trace()) {
      // One flow id per injected packet; stats_.packets was just bumped.
      const std::uint64_t flow = stats_.packets;
      t->instant(packet.src, obs_.cat_net, obs_.n_inject, inject_at, obs_.a_type,
                 packet.type, obs_.a_peer, packet.dst);
      t->flow_begin(packet.src, obs_.cat_net, obs_.n_flow, inject_at, flow);
      // With a transport the application is always served at the nominal
      // time (the drop is recovered below the app), so the deliver instant
      // is unconditional.
      if (transport_ != nullptr || action != FaultInjector::Action::kDrop) {
        t->flow_end(packet.dst, obs_.cat_net, obs_.n_flow, delivered, flow);
        t->instant(packet.dst, obs_.cat_net, obs_.n_deliver, delivered,
                   obs_.a_type, packet.type, obs_.a_bytes, L);
      }
    }
  }

  const ProcId dst = packet.dst;
  if (transport_ != nullptr) {
    // Reliable transport: the fault action is the fate of this wire
    // *attempt*, handled entirely by the transport's control plane. The
    // application sees the packet exactly once, at its nominal fault-free
    // time — per-channel FIFO and timeline both preserved by construction.
    transport_->on_wire(packet, delivered, action);
    schedule_delivery(alloc_slot(std::move(packet), 1), delivered);
    return ni;
  }
  switch (action) {
    case FaultInjector::Action::kDrop:
      break;  // no delivery event: the packet is gone
    case FaultInjector::Action::kDuplicate: {
      // Two delivery events share one arena slot (deliver_ takes a const
      // reference, so the second delivery reuses the same packet bytes).
      const SlotId id = alloc_slot(std::move(packet), 2);
      schedule_delivery(id, delivered);
      schedule_delivery(id, delivered + kProcessTimeNs);
      break;
    }
    case FaultInjector::Action::kDelay:
      schedule_delivery(alloc_slot(std::move(packet), 1),
                        delivered + injector_->plan().delay_ns);
      break;
    case FaultInjector::Action::kReorder: {
      // Hold the packet until the next delivery to this destination (it is
      // released just after, swapping their order), or until the fallback
      // timeout when no later packet ever comes. Two references: the held_
      // entry (transferred to the release event) and the fallback event;
      // whichever fires first delivers, the other sees `released`.
      if (held_[static_cast<std::size_t>(dst)] != kNoSlot) {
        release_held(dst, delivered);  // at most one held per dst
      }
      const SlotId id = alloc_slot(std::move(packet), 2);
      held_[static_cast<std::size_t>(dst)] = id;
      queue_.schedule(delivered + injector_->plan().reorder_hold_ns,
                      h_deliver_once_, id);
      break;
    }
    case FaultInjector::Action::kDeliver:
      schedule_delivery(alloc_slot(std::move(packet), 1), delivered);
      break;
  }
  if (action != FaultInjector::Action::kReorder &&
      action != FaultInjector::Action::kDrop &&
      held_[static_cast<std::size_t>(dst)] != kNoSlot) {
    // An actual delivery to this destination releases any held packet right
    // after itself, completing the reorder swap.
    release_held(dst, delivered + 1);
  }
  return ni;
}

}  // namespace locus
