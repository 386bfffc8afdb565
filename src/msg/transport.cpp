#include "msg/transport.hpp"

#include <algorithm>

#include "msg/packets.hpp"
#include "support/assert.hpp"

namespace locus {

namespace {

// Event operand packing. `a` carries the wire direction and sequence number
// (src and dst fit 16 bits each; the ctor asserts the machine is small
// enough); `b` carries per-event payload: the attempt number for timers, the
// scheduled deadline for delayed acks, and flags<<32 | ack for arrivals
// (flag bit 0: retransmit copy, bit 1: standalone ack).
constexpr std::uint64_t kFlagRetx = 1;
constexpr std::uint64_t kFlagAckOnly = 2;

std::uint64_t pack_dir(ProcId src, ProcId dst, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(src)) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(dst)) << 32) |
         seq;
}

ProcId unpack_src(std::uint64_t a) {
  return static_cast<ProcId>((a >> 48) & 0xFFFF);
}
ProcId unpack_dst(std::uint64_t a) {
  return static_cast<ProcId>((a >> 32) & 0xFFFF);
}
std::uint32_t unpack_seq(std::uint64_t a) {
  return static_cast<std::uint32_t>(a);
}

}  // namespace

// --- TransportChannel ----------------------------------------------------

std::uint32_t TransportChannel::begin_send(std::int32_t type,
                                           std::int32_t wire_bytes,
                                           SimTime nominal, SimTime timeout_at) {
  Unacked entry;
  entry.seq = next_seq_++;
  entry.type = type;
  entry.wire_bytes = wire_bytes;
  entry.nominal = nominal;
  entry.next_timeout = timeout_at;
  entry.attempts = 1;
  unacked_.push_back(entry);
  return entry.seq;
}

std::uint32_t TransportChannel::on_ack(std::uint32_t ack) {
  std::uint32_t retired = 0;
  // Cumulative: everything at or below `ack` is confirmed received. Entries
  // sit in ascending seq order, but a give-up may have punched a hole, so
  // scan from the front rather than assuming a contiguous prefix.
  while (!unacked_.empty() && unacked_.front().seq <= ack) {
    unacked_.pop_front();
    ++retired;
  }
  highest_acked_ = std::max(highest_acked_, ack);
  return retired;
}

TransportChannel::TimeoutVerdict TransportChannel::on_timeout(
    std::uint32_t seq, std::int32_t attempt, SimTime now) {
  TimeoutVerdict verdict;
  auto it = unacked_.begin();
  while (it != unacked_.end() && it->seq != seq) ++it;
  if (it == unacked_.end()) return verdict;   // already acked (or given up)
  if (it->attempts != attempt) return verdict;  // a newer attempt superseded
  if (it->attempts >= kTransportMaxAttempts) {
    verdict.gave_up = true;
    unacked_.erase(it);
    return verdict;
  }
  ++it->attempts;
  const std::int32_t exp = std::min(it->attempts - 1, kTransportMaxBackoffExp);
  double scale = 1.0;
  for (std::int32_t i = 0; i < exp; ++i) scale *= kTransportBackoff;
  it->next_timeout = now + static_cast<SimTime>(
                               static_cast<double>(kTransportRtoNs) * scale);
  verdict.retransmit = true;
  verdict.entry = *it;
  return verdict;
}

const TransportChannel::Unacked* TransportChannel::find_unacked(
    std::uint32_t seq) const {
  for (const Unacked& e : unacked_) {
    if (e.seq == seq) return &e;
  }
  return nullptr;
}

TransportChannel::Arrival TransportChannel::on_arrival(std::uint32_t seq,
                                                       bool* out_of_order,
                                                       std::uint32_t* released) {
  if (out_of_order != nullptr) *out_of_order = false;
  if (released != nullptr) *released = 0;
  if (seq <= rcv_cum_) return Arrival::kDuplicate;
  if (seq == rcv_cum_ + 1) {
    ++rcv_cum_;
    ++delivered_unique_;
    std::uint32_t advanced = 1;
    // Drain any buffered run the gap was holding back.
    auto it = ahead_.begin();
    while (it != ahead_.end() && *it == rcv_cum_ + 1) {
      ++rcv_cum_;
      ++advanced;
      it = ahead_.erase(it);
    }
    if (released != nullptr) *released = advanced;
    return Arrival::kNew;
  }
  // Ahead of a gap: buffer the first copy, discard repeats.
  if (!ahead_.insert(seq).second) return Arrival::kDuplicate;
  ++delivered_unique_;
  if (out_of_order != nullptr) *out_of_order = true;
  return Arrival::kNew;
}

// --- ReliableTransport ---------------------------------------------------

ReliableTransport::ReliableTransport(Network& network, EventQueue& queue,
                                     FaultInjector* injector)
    : network_(network),
      queue_(queue),
      injector_(injector),
      procs_(network.topology().num_nodes()) {
  LOCUS_ASSERT(procs_ > 0 && procs_ < (1 << 16));  // pack_dir uses 16 bits
  channels_.resize(static_cast<std::size_t>(procs_) *
                   static_cast<std::size_t>(procs_));
  h_arrival_ = queue_.add_handler(&ReliableTransport::on_arrival_event, this);
  h_timer_ = queue_.add_handler(&ReliableTransport::on_timer_event, this);
  h_ack_due_ = queue_.add_handler(&ReliableTransport::on_ack_due_event, this);
}

std::int32_t ReliableTransport::frame_bytes() const {
  return kTransportFrameBytes;
}

std::size_t ReliableTransport::channel_index(ProcId src, ProcId dst) const {
  LOCUS_ASSERT(src >= 0 && src < procs_ && dst >= 0 && dst < procs_);
  return static_cast<std::size_t>(src) * static_cast<std::size_t>(procs_) +
         static_cast<std::size_t>(dst);
}

TransportChannel& ReliableTransport::channel(ProcId src, ProcId dst) {
  return channels_[channel_index(src, dst)];
}

void ReliableTransport::on_wire(const Packet& packet, SimTime nominal,
                                FaultInjector::Action action) {
  const ProcId src = packet.src;
  const ProcId dst = packet.dst;
  TransportChannel& ch = channel(src, dst);
  ++stats_.data_packets;
  if (ch.window_full()) ++stats_.window_stalls;
  const std::int32_t wire_bytes = packet.bytes + kTransportFrameBytes;
  const std::uint32_t seq = ch.begin_send(packet.type, wire_bytes, nominal,
                                          nominal + kTransportRtoNs);
  stats_.peak_window = std::max(stats_.peak_window, ch.in_flight());
  // Piggyback the reverse direction's cumulative ack and cancel any standalone
  // ack it was waiting to send — this frame carries it for free.
  TransportChannel& rev = channel(dst, src);
  const std::uint32_t ack = rev.rcv_cum();
  rev.pending_data = 0;
  rev.ack_due_at = -1;
  queue_.schedule(nominal + kTransportRtoNs, h_timer_, pack_dir(src, dst, seq),
                  /*attempt=*/1);
  route_attempt(src, dst, seq, ack, action, nominal, /*is_retx=*/false,
                /*ack_only=*/false);
}

void ReliableTransport::route_attempt(ProcId src, ProcId dst,
                                      std::uint32_t seq, std::uint32_t ack,
                                      FaultInjector::Action action,
                                      SimTime nominal, bool is_retx,
                                      bool ack_only) {
  std::uint64_t flags = (is_retx ? kFlagRetx : 0) | (ack_only ? kFlagAckOnly : 0);
  const std::uint64_t a = pack_dir(src, dst, seq);
  const std::uint64_t b = (flags << 32) | ack;
  switch (action) {
    case FaultInjector::Action::kDeliver:
      queue_.schedule(nominal, h_arrival_, a, b);
      break;
    case FaultInjector::Action::kDrop:
      if (ack_only) {
        ++stats_.ack_wire_losses;
      } else {
        ++stats_.wire_losses;
      }
      break;
    case FaultInjector::Action::kDuplicate:
      // Two copies reach the receiver; the dedup path absorbs the second.
      if (!ack_only) ++stats_.dup_wire_copies;
      queue_.schedule(nominal, h_arrival_, a, b);
      queue_.schedule(nominal + kProcessTimeNs, h_arrival_, a, b);
      break;
    case FaultInjector::Action::kDelay:
      queue_.schedule(nominal + (injector_ != nullptr
                                     ? injector_->plan().delay_ns
                                     : 0),
                      h_arrival_, a, b);
      break;
    case FaultInjector::Action::kReorder:
      // The network's pairwise hold needs the per-destination held slot; the
      // control plane approximates it with the plan's release fallback, which
      // still lands the copy after later traffic at any realistic rate.
      queue_.schedule(nominal + (injector_ != nullptr
                                     ? injector_->plan().reorder_hold_ns
                                     : 0),
                      h_arrival_, a, b);
      break;
  }
}

void ReliableTransport::on_arrival_event(void* ctx, SimTime now,
                                         std::uint64_t a, std::uint64_t b) {
  auto* self = static_cast<ReliableTransport*>(ctx);
  const ProcId src = unpack_src(a);
  const ProcId dst = unpack_dst(a);
  const std::uint32_t ack = static_cast<std::uint32_t>(b);
  const std::uint64_t flags = b >> 32;
  self->process_ack(src, dst, ack, (flags & kFlagAckOnly) == 0);
  if ((flags & kFlagAckOnly) != 0) return;
  self->handle_data_arrival(now, src, dst, unpack_seq(a));
}

void ReliableTransport::process_ack(ProcId src, ProcId dst, std::uint32_t ack,
                                    bool piggyback) {
  // A frame on the src->dst wire acknowledges data that flowed dst->src.
  TransportChannel& sender = channel(dst, src);
  const std::uint32_t retired = sender.on_ack(ack);
  if (piggyback && retired > 0) ++stats_.piggyback_acks;
}

void ReliableTransport::handle_data_arrival(SimTime now, ProcId src,
                                            ProcId dst, std::uint32_t seq) {
  ++stats_.arrivals;
  TransportChannel& ch = channel(src, dst);
  bool out_of_order = false;
  const TransportChannel::Arrival arrival = ch.on_arrival(seq, &out_of_order);
  if (arrival == TransportChannel::Arrival::kDuplicate) {
    ++stats_.dup_dropped;
  } else {
    ++stats_.delivered;
    if (out_of_order) ++stats_.out_of_order;
    // The unacked entry outlives the arrival (the ack comes later), so the
    // first copy's recovery lag is measurable from the sender's record.
    if (const TransportChannel::Unacked* e = ch.find_unacked(seq)) {
      stats_.max_recovery_lag_ns =
          std::max(stats_.max_recovery_lag_ns, now - e->nominal);
    }
  }
  // Duplicates still owe an ack: a dup usually means the sender missed our
  // previous ack, and re-acking is what stops its retransmit timer.
  note_pending_ack(src, dst, now);
}

void ReliableTransport::note_pending_ack(ProcId src, ProcId dst, SimTime now) {
  TransportChannel& ch = channel(src, dst);
  ++ch.pending_data;
  if (ch.pending_data >= kTransportAckEvery) {
    send_standalone_ack(src, dst, now);
    return;
  }
  if (ch.ack_due_at < 0) {
    ch.ack_due_at = now + kTransportAckDelayNs;
    queue_.schedule(ch.ack_due_at, h_ack_due_, pack_dir(src, dst, 0),
                    static_cast<std::uint64_t>(ch.ack_due_at));
  }
}

void ReliableTransport::send_standalone_ack(ProcId src, ProcId dst,
                                            SimTime now) {
  // Acknowledges the src->dst data direction, so the ack travels dst->src.
  TransportChannel& ch = channel(src, dst);
  ch.pending_data = 0;
  ch.ack_due_at = -1;
  const std::int32_t bytes = ack_packet_bytes();
  ++stats_.acks_sent;
  stats_.ack_bytes += static_cast<std::uint64_t>(bytes);
  const SimTime nominal =
      network_.charge_control(dst, src, kMsgAck, bytes, now);
  const FaultInjector::Action action =
      injector_ != nullptr ? injector_->packet_action(kMsgAck)
                           : FaultInjector::Action::kDeliver;
  route_attempt(dst, src, 0, ch.rcv_cum(), action, nominal, /*is_retx=*/false,
                /*ack_only=*/true);
}

void ReliableTransport::on_timer_event(void* ctx, SimTime now, std::uint64_t a,
                                       std::uint64_t b) {
  auto* self = static_cast<ReliableTransport*>(ctx);
  const ProcId src = unpack_src(a);
  const ProcId dst = unpack_dst(a);
  const std::uint32_t seq = unpack_seq(a);
  TransportChannel& ch = self->channel(src, dst);
  const TransportChannel::TimeoutVerdict verdict =
      ch.on_timeout(seq, static_cast<std::int32_t>(b), now);
  if (verdict.gave_up) {
    ++self->stats_.gave_up;
    return;
  }
  if (!verdict.retransmit) return;  // stale timer: acked or superseded
  ++self->stats_.retransmits;
  self->stats_.retransmit_bytes +=
      static_cast<std::uint64_t>(verdict.entry.wire_bytes);
  // The retransmit frame carries a fresh reverse-direction ack, like any
  // other data frame.
  TransportChannel& rev = self->channel(dst, src);
  const std::uint32_t ack = rev.rcv_cum();
  rev.pending_data = 0;
  rev.ack_due_at = -1;
  const SimTime nominal = self->network_.charge_control(
      src, dst, verdict.entry.type, verdict.entry.wire_bytes, now);
  const FaultInjector::Action action =
      self->injector_ != nullptr
          ? self->injector_->packet_action(verdict.entry.type)
          : FaultInjector::Action::kDeliver;
  self->queue_.schedule(verdict.entry.next_timeout, self->h_timer_, a,
                        static_cast<std::uint64_t>(verdict.entry.attempts));
  self->route_attempt(src, dst, seq, ack, action, nominal, /*is_retx=*/true,
                      /*ack_only=*/false);
}

void ReliableTransport::on_ack_due_event(void* ctx, SimTime now,
                                         std::uint64_t a, std::uint64_t b) {
  auto* self = static_cast<ReliableTransport*>(ctx);
  const ProcId src = unpack_src(a);
  const ProcId dst = unpack_dst(a);
  TransportChannel& ch = self->channel(src, dst);
  // Only the most recently armed deadline is live; a piggyback or forced ack
  // in the interim cleared or re-armed it.
  if (ch.ack_due_at != static_cast<SimTime>(b)) return;
  if (ch.pending_data <= 0) {
    ch.ack_due_at = -1;
    return;
  }
  self->send_standalone_ack(src, dst, now);
}

void ReliableTransport::finalize() {
  LOCUS_ASSERT(!finalized_);
  finalized_ = true;
  for (TransportChannel& ch : channels_) {
    stats_.unacked_at_end += ch.in_flight();
  }
  stats_.undelivered = stats_.data_packets - stats_.delivered;
  LOCUS_ASSERT(stats_.books_balance());
}

}  // namespace locus
