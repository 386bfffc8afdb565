// The message passing LocusRoute processor program (paper §4).
//
// Each node owns one region of the cost array, holds a private view of the
// whole array plus a delta array of unpropagated changes, and routes its
// statically assigned wires, or the wires the dynamic queue grants it.
// Both arrays are tiled (grid/tile_grid.hpp): only the tiles the node
// touches are allocated, and an absent tile reads as the initial zero.
// Between wires it:
//   * applies arrived updates (absolute replacements or delta adds), block
//     by block: every update carries a block list, one bounding box when
//     unbatched or one tight box per tile when batched, and one send path
//     prices either form;
//   * answers ReqRmtData with absolute data and ReqLocData with deltas,
//   * fires sender-initiated SendLocData / SendRmtData on their wire
//     periods (suppressed when nothing changed),
//   * orders receiver-initiated ReqRmtData a few wires ahead of routing,
//     optionally blocking until the responses arrive.
// Under dynamic assignment one grant engine serves both modes and every
// grant policy; DynamicScheduleConfig::extended_protocol() picks only the
// request format (header-only single-wire, or completion count plus
// resident regions) and when a worker sends it.
// Quality is later computed from the committed routes, never from the
// (deliberately stale) views.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "assign/affinity.hpp"
#include "assign/assignment.hpp"
#include "circuit/circuit.hpp"
#include "geom/partition.hpp"
#include "grid/cost_array.hpp"
#include "grid/delta_array.hpp"
#include "grid/tiled_cost_array.hpp"
#include "msg/config.hpp"
#include "msg/packets.hpp"
#include "msg/view.hpp"
#include "obs/obs.hpp"
#include "route/cost_view.hpp"
#include "route/router.hpp"
#include "sim/machine.hpp"

namespace locus {

/// Where a processor's busy time went. The paper (§5.1.1) measured that
/// packet assembly and disassembly take up to a quarter of processing time
/// under frequent updates; this breakdown reproduces that measurement.
struct TimeBreakdown {
  SimTime routing_ns = 0;        ///< pricing, committing, per-wire overhead
  SimTime msg_software_ns = 0;   ///< scan + pack + unpack + fixed handling
  SimTime network_copy_ns = 0;   ///< ProcessTime charges (NI copies)

  SimTime busy_ns() const { return routing_ns + msg_software_ns + network_copy_ns; }
  /// Fraction of busy time spent on message software (the paper's "up to
  /// one fourth" figure).
  double message_fraction() const {
    return busy_ns() == 0 ? 0.0
                          : static_cast<double>(msg_software_ns + network_copy_ns) /
                                static_cast<double>(busy_ns());
  }

  TimeBreakdown& operator+=(const TimeBreakdown& other) {
    routing_ns += other.routing_ns;
    msg_software_ns += other.msg_software_ns;
    network_copy_ns += other.network_copy_ns;
    return *this;
  }
};

/// Results and counters shared by all nodes of one run; owned by the driver.
///
/// `truth` is a measurement-only oracle: because the DES executes events in
/// global time order, committing every route into one array yields the true
/// instantaneous global occupancy. The occupancy factor prices each chosen
/// path against it ("the cost of the wire's path at the time it was
/// chosen"), so stale views that pick genuinely congested paths score
/// worse — the paper's §5.1 trend. Nodes never *read* it for routing.
struct MpShared {
  explicit MpShared(const Circuit& circuit)
      : truth(circuit.channels(), circuit.grids()) {}

  CostArray truth;
  std::vector<WireRoute> final_routes;       ///< indexed by wire id
  std::vector<std::int64_t> occupancy;       ///< per proc, final iteration
  std::vector<RouteWorkStats> work;          ///< per proc
  std::vector<TimeBreakdown> time_breakdown; ///< per proc
  std::int64_t updates_suppressed = 0;       ///< clean-region updates skipped
  // Dynamic-scheduling counters (DESIGN.md §11).
  std::int64_t grant_wires = 0;      ///< wires carried by grant packets
  std::int64_t affinity_grants = 0;  ///< wires taken from a resident bucket
  KindTally sent{};      ///< per message kind, as handed to the network
  KindTally received{};  ///< per message kind, as delivered to a node
  /// Per-wire route spans; bound by the driver when MpConfig::obs traces
  /// (the DES is sequential, so one sink serves every node).
  obs::RouteSpanObs route_spans;
};

class RouterNode final : public Node {
 public:
  RouterNode(const Circuit& circuit, const Partition& partition,
             const MpConfig& config, std::vector<WireId> my_wires, ProcId self,
             MpShared& shared);

  void on_start(NodeApi& api) override;
  void on_packet(NodeApi& api, const Packet& packet) override;
  bool on_step(NodeApi& api) override;
  bool blocked() const override;

  /// Test hooks.
  const TiledCostArray& view() const { return view_; }
  const DeltaArray& delta() const { return delta_; }
  std::int32_t pending_responses() const { return pending_responses_; }

 private:
  void advance_lookahead(NodeApi& api);
  void route_one_wire(NodeApi& api);
  /// Rip up + re-route one wire; returns the compute cost. Charges the
  /// node's clock when `charge_now` (the dynamic queue owner defers the
  /// charge to slice it).
  SimTime route_wire_id(NodeApi& api, WireId wire_id, std::int32_t iteration,
                        bool charge_now);

  // Dynamic wire assignment (paper §4.2, DESIGN.md §11): processor 0 owns
  // the wire queue and routes wires itself; the others request, wait and
  // route what they are granted.
  enum class TakeStatus : std::int8_t { kOk, kWait, kDefer, kDone };
  bool master_step(NodeApi& api);
  bool worker_step(NodeApi& api);
  /// Pops up to `count` wires of the current iteration for `home`: in
  /// ascending id order under GrantPolicy::kFifoOrder, preferring its
  /// resident regions under kLocality. Batches never straddle an iteration
  /// boundary; kWait means the rollover is gated on outstanding wires,
  /// kDefer that nothing is reachable for this requester inside the
  /// locality radius (park it until rollover), kDone that the run is
  /// exhausted.
  TakeStatus take_wires(ProcId home, std::span<const ProcId> resident,
                        std::int32_t count, std::int32_t* iteration,
                        std::vector<WireId>* out);
  void drain_pending_grants(NodeApi& api);
  void send_grant(NodeApi& api, ProcId dst, std::vector<WireId> wires,
                  std::int32_t iteration);
  /// Sends a wire request in the configured format: header-only for the
  /// single-wire protocol, else wire_request_packet_bytes().
  void request_wire(NodeApi& api);
  /// Regions where this node's view currently backs storage, nearest first,
  /// capped at kResidentSummaryCap (node.cpp). Recomputed only
  /// when the view's resident footprint changed; empty unless the grant
  /// policy is kLocality.
  std::span<const ProcId> resident_summary();
  void fire_sender_updates(NodeApi& api);
  /// Extracts `region`'s pending deltas as blocks of update_dims_ (none if
  /// clean) and charges the scan.
  std::vector<UpdateBlock> take_deltas(NodeApi& api, ProcId region);
  /// Sends one update packet to `dst`, charging its pack cost and bytes:
  /// batched_update_packet_bytes() for a delta-scan update under
  /// ShardConfig::batch_updates, else update_packet_bytes() of the
  /// configured PacketStructure. Fires
  /// on_delta_sent per block of a delta packet, matching the per-block
  /// applies on the receiver.
  void send_update(NodeApi& api, ProcId dst, std::int32_t type,
                   const std::shared_ptr<const RegionUpdatePayload>& update);
  /// Sends a header-only ReqRmtData / ReqLocData for `bbox` of `region`.
  void send_request(NodeApi& api, ProcId dst, std::int32_t type, ProcId region,
                    const Rect& bbox);
  /// Charges `software_ns` of message software, hands the packet to the
  /// network, tallies it per kind and books the send-side NI copy.
  void send_packet(NodeApi& api, ProcId dst, std::int32_t type, std::int32_t bytes,
                   std::shared_ptr<const PacketPayload> payload, SimTime software_ns);
  void note_route_segments(const WireRoute& route);
  TimeBreakdown& breakdown();

  const Circuit& circuit_;
  const Partition& partition_;
  const MpConfig& config_;
  std::vector<WireId> my_wires_;
  ProcId self_;
  MpShared& shared_;

  TiledCostArray view_;  ///< own region pinned resident from the start
  DeltaArray delta_;
  /// Block shape of every update: shard.tile when batching, else the whole
  /// grid (one bounding box per update).
  TileDims update_dims_;
  ViewWithDelta view_with_delta_;
  WireRouter router_;

  std::int32_t iteration_ = 0;
  std::size_t cursor_ = 0;
  std::size_t lookahead_cursor_ = 0;

  std::int32_t wires_since_send_loc_ = 0;
  std::int32_t wires_since_send_rmt_ = 0;

  // Receiver-initiated state.
  std::vector<std::int32_t> touch_count_;   ///< per region
  std::vector<Rect> interest_bbox_;         ///< per region
  std::int32_t pending_responses_ = 0;

  // ReqLocData trigger state (owner side).
  std::vector<std::int32_t> req_rmt_received_;  ///< per remote proc

  // Wire-based packet structure accounting.
  std::vector<std::int64_t> segments_changed_;  ///< per region

  // Dynamic wire assignment state (config_.assignment_mode != kStatic).
  struct PendingRequest {
    ProcId src = -1;
    std::vector<ProcId> resident;  ///< requester's resident-region summary
  };
  std::int32_t granted_iteration_ = 0;  ///< worker: iteration of its queue
  bool waiting_grant_ = false;        ///< worker: request outstanding
  bool no_more_ = false;              ///< worker: queue exhausted
  std::int32_t dyn_next_wire_ = 0;    ///< master: FIFO queue cursor
  std::int32_t dyn_iteration_ = 0;    ///< master: current iteration
  SimTime slice_remaining_ = 0;       ///< master: sliced charge (interrupt mode)
  std::unique_ptr<WireAffinityIndex> affinity_;  ///< master, kLocality only
  std::int64_t outstanding_wires_ = 0;  ///< master: granted, not yet reported
  std::vector<PendingRequest> queued_requests_;  ///< master
  /// Master: requests refused by the locality radius, parked until the
  /// iteration rolls over (or the run ends) re-queues them.
  std::vector<PendingRequest> deferred_requests_;
  std::vector<WireId> wire_queue_;    ///< worker: granted, not yet routed
  std::size_t queue_head_ = 0;
  std::int32_t completed_unreported_ = 0;  ///< worker: since last report
  std::vector<ProcId> resident_summary_;
  std::int64_t resident_snapshot_cells_ = -1;  ///< summary cache key
};

}  // namespace locus
