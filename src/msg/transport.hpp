// Reliable message passing transport (acks, retransmit, dedup).
//
// The paper's update protocols assume a lossless interconnect; the fault
// subsystem (sim/fault.hpp) can only *detect* the divergence a lossy one
// causes. This layer closes the loop: a sliding-window transport beneath
// all four update transaction types — per-(src,dst) sequence numbers in the
// wire frame, receiver-side dedup, cumulative acks piggybacked on every
// data packet plus standalone kMsgAck packets, sender timeout + retransmit
// with exponential backoff — so that at moderate drop rates every MP
// protocol converges to routes bit-identical to its fault-free run.
//
// Split of planes (DESIGN.md §10 records the full argument):
//   * data plane: the network delivers every data packet to the application
//     exactly once at its NOMINAL fault-free time, whatever the injector
//     did to the wire attempt. This models a transport whose recovery
//     completes within the protocol's staleness tolerance and makes the
//     "bit-identical to fault-free" guarantee exact by construction — a
//     real-timing recovery could never promise that for the blocking
//     receiver schedule, where a late response shifts the node's timeline.
//   * control plane: the full state machine (seqnos, unacked window, RTO
//     with exponential backoff, cumulative acks, dedup) runs in simulated
//     time against the actual fault pattern. Its packets — retransmits
//     carrying the full data bytes and standalone acks — are charged to
//     NetworkStats via Network::charge_control() on a modeled dedicated
//     virtual channel (no link reservation), so recovery traffic is
//     measured without perturbing the foreground timeline.
//
// TransportChannel is the pure per-(src,dst) state machine, unit-testable
// with injected times; ReliableTransport owns one channel per ordered
// processor pair and integrates with the DES via its own event handlers.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/packet.hpp"

namespace locus {

/// Reliable transport switch (MpConfig::transport). Default-off: with
/// enabled == false nothing in the run changes, byte for byte.
struct TransportConfig {
  bool enabled = false;
};

/// Sender window: unacked sequence numbers per (src,dst) channel before the
/// sender counts a window stall. The DES sender cannot defer the foreground
/// send without perturbing the nominal timeline, so in the integrated run
/// the window is an accounted invariant (stalls + peak occupancy), while
/// TransportChannel enforces it for unit-level use.
inline constexpr std::int32_t kTransportWindow = 32;
/// Initial retransmit timeout, measured from the attempt's nominal delivery
/// time (the forward latency is already excluded). Must exceed
/// kTransportAckDelayNs plus the reverse-path latency — including a
/// piggybacking reverse data packet's drain time — or delivered packets
/// retransmit spuriously.
inline constexpr SimTime kTransportRtoNs = 400'000;
/// RTO multiplier per retransmit attempt (exponential backoff), capped at
/// kTransportBackoff^kTransportMaxBackoffExp.
inline constexpr double kTransportBackoff = 2.0;
inline constexpr std::int32_t kTransportMaxBackoffExp = 5;
/// Give up on a sequence number after this many wire attempts (first send
/// included). The application was already served at the nominal time, so
/// giving up only ends the control-plane recovery; it is counted.
inline constexpr std::int32_t kTransportMaxAttempts = 16;
/// Standalone-ack holdoff after a data arrival: a reverse-direction data
/// packet inside this window piggybacks the ack for free.
inline constexpr SimTime kTransportAckDelayNs = 30'000;
/// Force a standalone ack once this many data arrivals are unacked.
inline constexpr std::int32_t kTransportAckEvery = 4;

static_assert(kTransportWindow >= 1 && kTransportRtoNs >= 1 &&
              kTransportMaxAttempts >= 1 && kTransportAckEvery >= 1);
static_assert(kTransportBackoff >= 1.0 && kTransportMaxBackoffExp >= 0);
// A negative holdoff would schedule the delayed ack before now and could
// land on ack_due_at's -1 "no ack due" sentinel.
static_assert(kTransportAckDelayNs >= 0);
static_assert(kTransportRtoNs > kTransportAckDelayNs,
              "a retransmit timer must outlast the delayed ack");

/// Control-plane accounting. The books must balance (books_balance()):
///   arrivals == data_packets + retransmits + dup_wire_copies - wire_losses
///   arrivals == delivered + dup_dropped
/// and, once finalize() ran,
///   delivered + undelivered == data_packets.
struct TransportStats {
  std::uint64_t data_packets = 0;     ///< application packets carried
  std::uint64_t retransmits = 0;      ///< mp.retx
  std::uint64_t retransmit_bytes = 0; ///< wire bytes of retransmit copies
  std::uint64_t gave_up = 0;          ///< seqs abandoned after kTransportMaxAttempts
  std::uint64_t acks_sent = 0;        ///< standalone kMsgAck packets
  std::uint64_t ack_bytes = 0;        ///< mp.ack_bytes (standalone acks)
  std::uint64_t ack_wire_losses = 0;  ///< standalone acks the injector killed
  std::uint64_t piggyback_acks = 0;   ///< data frames whose ack retired seqs
  std::uint64_t dup_dropped = 0;      ///< mp.dup_dropped (receiver dedup)
  std::uint64_t out_of_order = 0;     ///< new arrivals ahead of a gap
  std::uint64_t wire_losses = 0;      ///< data attempts the injector killed
  std::uint64_t dup_wire_copies = 0;  ///< injector-duplicated extra copies
  std::uint64_t arrivals = 0;         ///< data copies that reached a receiver
  std::uint64_t delivered = 0;        ///< unique seqs received (first copy)
  std::uint64_t undelivered = 0;      ///< finalize(): seqs never received
  std::uint64_t window_stalls = 0;    ///< sends issued against a full window
  std::int64_t peak_window = 0;       ///< max unacked seqs on any channel
  std::int64_t unacked_at_end = 0;    ///< finalize(): seqs never acked
  SimTime max_recovery_lag_ns = 0;    ///< worst (first arrival - nominal)

  bool books_balance() const {
    return arrivals ==
               data_packets + retransmits + dup_wire_copies - wire_losses &&
           arrivals == delivered + dup_dropped &&
           delivered + undelivered == data_packets;
  }
};

/// Pure per-(src,dst) transport state machine: sender window + timers on
/// one side, dedup + cumulative ack on the other. All times are injected,
/// so unit tests drive it deterministically without a network.
class TransportChannel {
 public:
  struct Unacked {
    std::uint32_t seq = 0;
    std::int32_t type = 0;
    std::int32_t wire_bytes = 0;
    SimTime nominal = 0;       ///< nominal delivery time of the first send
    SimTime next_timeout = 0;  ///< when the pending RTO for this seq fires
    std::int32_t attempts = 1; ///< wire attempts so far (first send included)
  };

  enum class Arrival : std::uint8_t { kNew, kDuplicate };

  struct TimeoutVerdict {
    bool retransmit = false;
    bool gave_up = false;
    /// Valid when retransmit: the retried entry (attempts already bumped,
    /// next_timeout already pushed out by the backoff).
    Unacked entry;
  };

  // --- sender side ---

  /// Assigns the next sequence number and tracks it as unacked. Returns the
  /// seq. Callers who care about the window check window_full() *before*
  /// sending — the integrated DES sender proceeds anyway (stall counted as
  /// an accounted invariant); unit-level users may choose to block.
  std::uint32_t begin_send(std::int32_t type, std::int32_t wire_bytes,
                           SimTime nominal, SimTime timeout_at);

  bool window_full() const {
    return static_cast<std::int32_t>(unacked_.size()) >= kTransportWindow;
  }
  std::int64_t in_flight() const {
    return static_cast<std::int64_t>(unacked_.size());
  }

  /// Cumulative ack: retires every unacked seq <= ack. Returns how many.
  std::uint32_t on_ack(std::uint32_t ack);

  /// RTO fired for (seq, attempt). Stale timers (seq already acked or a
  /// newer attempt superseded this timer) return a no-op verdict. A live
  /// timer either schedules a retransmit (attempts < kTransportMaxAttempts;
  /// backoff applied to the next timeout from `now`) or abandons the seq.
  TimeoutVerdict on_timeout(std::uint32_t seq, std::int32_t attempt, SimTime now);

  const Unacked* find_unacked(std::uint32_t seq) const;
  std::uint32_t next_seq() const { return next_seq_; }

  // --- receiver side ---

  /// One wire copy of `seq` arrived. Duplicates (already delivered or
  /// already buffered ahead of the gap) are discarded; new seqs advance the
  /// cumulative counter over any buffered run. `out_of_order` (optional)
  /// reports a new arrival that left a gap; `released` (optional) the
  /// number of seqs the in-order frontier advanced by.
  Arrival on_arrival(std::uint32_t seq, bool* out_of_order = nullptr,
                     std::uint32_t* released = nullptr);

  /// Cumulative ack value to advertise: every seq <= rcv_cum() received.
  std::uint32_t rcv_cum() const { return rcv_cum_; }
  std::uint32_t delivered_unique() const { return delivered_unique_; }
  std::int64_t buffered_ahead() const {
    return static_cast<std::int64_t>(ahead_.size());
  }

  // Receiver-side ack pacing state, owned here so ReliableTransport stays a
  // thin event adapter. `pending_data` counts unacked arrivals; ack_due_at
  // arbitrates the delayed-ack event against later flushes (-1: none).
  std::int32_t pending_data = 0;
  SimTime ack_due_at = -1;

 private:
  // Sender: unacked entries in ascending seq order.
  std::deque<Unacked> unacked_;
  std::uint32_t next_seq_ = 1;
  std::uint32_t highest_acked_ = 0;
  // Receiver: contiguous prefix [1, rcv_cum_] received; out-of-order seqs
  // beyond the gap buffered in ahead_.
  std::uint32_t rcv_cum_ = 0;
  std::uint32_t delivered_unique_ = 0;
  std::set<std::uint32_t> ahead_;
};

/// DES integration: owns one TransportChannel per ordered processor pair,
/// consumes the per-attempt fault actions from Network::inject(), and runs
/// the control plane (arrivals, acks, RTO timers) through its own event
/// handlers. Install with Network::set_transport(); not owned by it.
class ReliableTransport final : public PacketTransport {
 public:
  /// `injector` may be null (fault-free run: the control plane still runs —
  /// seqnos, acks, timers — but every attempt arrives and no RTO fires).
  ReliableTransport(Network& network, EventQueue& queue, FaultInjector* injector);

  std::int32_t frame_bytes() const override;
  void on_wire(const Packet& packet, SimTime nominal,
               FaultInjector::Action action) override;

  /// Call after the simulation drains: computes the finalize()-only stats
  /// (undelivered seqs, unacked survivors) and asserts the books balance.
  void finalize();

  const TransportStats& stats() const { return stats_; }

  /// Test hook: the channel carrying src -> dst traffic.
  TransportChannel& channel(ProcId src, ProcId dst);

 private:
  static void on_arrival_event(void* ctx, SimTime now, std::uint64_t a,
                               std::uint64_t b);
  static void on_timer_event(void* ctx, SimTime now, std::uint64_t a,
                             std::uint64_t b);
  static void on_ack_due_event(void* ctx, SimTime now, std::uint64_t a,
                               std::uint64_t b);

  /// Routes one wire attempt (data or standalone ack) through the fault
  /// action and schedules its arrival event(s), if any.
  void route_attempt(ProcId src, ProcId dst, std::uint32_t seq,
                     std::uint32_t ack, FaultInjector::Action action,
                     SimTime nominal, bool is_retx, bool ack_only);
  void handle_data_arrival(SimTime now, ProcId src, ProcId dst,
                           std::uint32_t seq);
  void process_ack(ProcId src, ProcId dst, std::uint32_t ack, bool piggyback);
  void note_pending_ack(ProcId src, ProcId dst, SimTime now);
  void send_standalone_ack(ProcId src, ProcId dst, SimTime now);

  std::size_t channel_index(ProcId src, ProcId dst) const;

  Network& network_;
  EventQueue& queue_;
  FaultInjector* injector_;
  TransportStats stats_;
  std::vector<TransportChannel> channels_;  ///< procs x procs, row = src
  std::int32_t procs_ = 0;
  bool finalized_ = false;
  EventQueue::HandlerId h_arrival_;
  EventQueue::HandlerId h_timer_;
  EventQueue::HandlerId h_ack_due_;
};

}  // namespace locus
