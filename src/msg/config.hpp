// Configuration of the message passing implementation (paper §4).
//
// An update schedule combines the four transaction types of Figure 3:
//   sender initiated:   SendLocData (absolute own-region broadcasts to the
//                       four mesh neighbors) and SendRmtData (delta pushes
//                       to remote owners), each fired every N routed wires;
//   receiver initiated: ReqRmtData (ask a region's owner for fresh absolute
//                       data once enough upcoming wires touch that region)
//                       and ReqLocData (the owner asks a chatty remote for
//                       its pending deltas), with blocking or non-blocking
//                       waits on the requester.
// A period/threshold of zero disables that transaction type, so pure
// sender, pure receiver, and mixed schedules are all expressible.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/partition.hpp"
#include "grid/tile_grid.hpp"
#include "msg/transport.hpp"
#include "sim/link_cost.hpp"
#include "sim/topology.hpp"

namespace locus {

struct FaultPlan;  // sim/fault.hpp
class MpObserver;  // msg/observer.hpp
namespace obs {
class Obs;  // obs/obs.hpp
}  // namespace obs

/// How wires reach processors (paper §4.2). The paper evaluates only the
/// static ThresholdCost assignment because "CBS does not support the notion
/// of interrupts occurring on message reception"; our engine does not have
/// that limitation, so both dynamic schemes it describes are implemented:
///   * kDynamicPolled — processor 0 owns the wire queue and routes wires
///     itself; wire-request packets are serviced only between its own
///     wires, so a requester can wait for an entire wire to be routed;
///   * kDynamicInterrupt — the queue owner's routing is time-sliced and
///     requests are serviced at the next slice boundary, modeling low
///     overhead reception interrupts.
enum class WireAssignmentMode : std::int8_t {
  kStatic,
  kDynamicPolled,
  kDynamicInterrupt,
};

/// Routing-time slice of the queue owner under kDynamicInterrupt: arriving
/// wire requests are serviced within one slice.
inline constexpr std::int64_t kInterruptSliceNs = 1'000'000;

/// Grant-ordering policy of the dynamic wire queue owner (DESIGN.md §11).
enum class GrantPolicy : std::int8_t {
  kFifoOrder,  ///< ascending wire id, the §4.2 queue
  kLocality,   ///< prefer wires overlapping the requester's resident tiles
};

/// Dynamic scheduling knobs. One grant engine serves every setting; the
/// defaults are the §4.2 single-wire FIFO queue. Any non-default value
/// selects the extended request format (DESIGN.md §11), and that is all
/// extended_protocol() changes:
///   * a request costs wire_request_packet_bytes() (completion count and
///     resident-region summary) instead of a bare 16-byte header;
///   * a worker sends its next request in the step after its queue drains,
///     once the packets that arrived meanwhile are handled, instead of in
///     the step that routed its last wire.
/// Grants carry a wire list either way (grant_packet_bytes() for at most
/// one wire). MpConfig::validate() rejects grant_batch < 1 and a negative
/// locality_radius.
struct DynamicScheduleConfig {
  GrantPolicy policy = GrantPolicy::kFifoOrder;
  /// Wires handed out per grant (>= 1). Batches never straddle an
  /// iteration boundary.
  std::int32_t grant_batch = 1;
  /// kLocality roam limit in mesh hops (0 = unlimited): a requester is only
  /// granted wires homed within this many hops of its own region, except
  /// from regions it already backs tiles in (no new footprint there).
  /// Requests that cannot be satisfied inside the radius are deferred until
  /// the iteration rolls over, bounding how many distinct thieves replicate
  /// any donor region's tiles.
  std::int32_t locality_radius = 0;

  bool extended_protocol() const {
    return policy != GrantPolicy::kFifoOrder || grant_batch > 1;
  }
};

enum class PacketStructure : std::int8_t {
  kWireBased,    ///< §4.3.1 option 1: per-segment coordinates of changed wires
  kWholeRegion,  ///< §4.3.1 option 2: every cell of the owned region
  kBoundingBox,  ///< §4.3.1 option 3 (the paper's choice): bbox of changes
};

struct UpdateSchedule {
  /// SendLocData parameter: wires routed between absolute own-region
  /// broadcasts (0 disables).
  std::int32_t send_loc_period = 0;
  /// SendRmtData parameter: wires routed between delta pushes to remote
  /// owners (0 disables).
  std::int32_t send_rmt_period = 0;
  /// ReqRmtData parameter: upcoming-wire touches of a remote region that
  /// trigger an update request to its owner (0 disables).
  std::int32_t req_rmt_touches = 0;
  /// ReqLocData parameter: ReqRmtData packets received from one remote
  /// before the owner requests that remote's deltas (0 disables).
  std::int32_t req_loc_requests = 0;
  /// Blocking receiver: the requester stalls until its ReqRmtData responses
  /// arrive, instead of routing on.
  bool blocking_receiver = false;
  /// Requests are ordered this many wires ahead of routing (paper: five).
  std::int32_t request_lookahead = 5;

  bool sender_enabled() const { return send_loc_period > 0 || send_rmt_period > 0; }
  bool receiver_enabled() const { return req_rmt_touches > 0; }

  /// Pure sender-initiated schedule (Table 1 rows).
  static UpdateSchedule sender(std::int32_t send_rmt, std::int32_t send_loc) {
    UpdateSchedule s;
    s.send_rmt_period = send_rmt;
    s.send_loc_period = send_loc;
    return s;
  }

  /// Pure receiver-initiated schedule (Table 2 rows).
  static UpdateSchedule receiver(std::int32_t req_loc, std::int32_t req_rmt,
                                 bool blocking = false) {
    UpdateSchedule s;
    s.req_loc_requests = req_loc;
    s.req_rmt_touches = req_rmt;
    s.blocking_receiver = blocking;
    return s;
  }
};

/// Tile storage of every node's view and delta array, and region-batched
/// update packets (grid/tiled_cost_array.hpp).
///
/// Views and delta arrays are always tiled; `tile` sets the tile shape (each
/// side a positive power of two). Only resident memory depends on it: an
/// absent tile reads as the initial zero and the delta scan visits the same
/// cells whatever is resident, so routes, bytes and timing do not.
/// `batch_updates` additionally packs each destination's update into tight
/// per-`tile` blocks instead of one conservative bounding box (fewer bytes
/// for scattered changes, one packet either way). Batching changes packet
/// byte counts and therefore simulated timing and routes, so it defaults
/// off and is compared against unbatched runs by the scale harness.
struct ShardConfig {
  /// Read by nothing. perfbench/workloads.cpp still assigns it, and that
  /// file changes only together with the benchmark; the next benchmark
  /// change deletes the assignment and this field.
  bool enabled = false;
  TileDims tile;
  /// Region-batched per-tile update blocks (requires kBoundingBox packets).
  bool batch_updates = false;
};

struct MpConfig {
  UpdateSchedule schedule;
  std::int32_t iterations = 2;
  PacketStructure packet_structure = PacketStructure::kBoundingBox;
  /// Tile shape of the per-node views + optional region-batched updates.
  ShardConfig shard;
  Topology::Edges edges = Topology::Edges::kMesh;
  /// Switch arity when `edges == kFatTree` (processors at the leaves,
  /// up/down routing; ignored otherwise).
  std::int32_t fat_tree_arity = 2;
  /// Per-link interconnect timing discipline (sim/link_cost.hpp): the
  /// paper's fixed charge or M/D/1 queueing. The default
  /// keeps runs bit-identical to the pre-seam network.
  LinkCostParams link_cost;
  WireAssignmentMode assignment_mode = WireAssignmentMode::kStatic;
  /// Locality/batching knobs for the dynamic modes; the defaults are the
  /// §4.2 FIFO single-wire protocol. Unused under kStatic.
  DynamicScheduleConfig dynamic;
  /// Override the interconnect shape (CBS simulated k-ary n-cubes of any
  /// dimension). Empty: a 2D mesh matching the partition. If set, the
  /// product must equal the processor count; the cost-array partition
  /// stays 2D and processor ids map by index.
  std::vector<std::int32_t> topology_dims;
  /// Optional fault-injection plan installed into the simulated machine
  /// (src/sim/fault.hpp). Null or all-zero rates: byte-for-byte identical
  /// behavior to an unfaulted run. Not owned. Under a dynamic
  /// assignment_mode, a plan that drops or duplicates WireRequest or
  /// WireGrant packets needs `transport.enabled`.
  const FaultPlan* faults = nullptr;
  /// Reliable transport (msg/transport.hpp). Default-off: the run is
  /// byte-identical to the pre-transport code. When enabled, data packets
  /// carry the seqno/ack frame, the recovery control plane runs against the
  /// fault plan, and routes stay bit-identical to the transport-on
  /// fault-free run at any drop rate the recovery survives.
  TransportConfig transport;
  /// Optional protocol-event observer (msg/observer.hpp) for correctness
  /// checkers; hooks fire synchronously inside the DES. Not owned.
  MpObserver* observer = nullptr;
  /// Optional observability sink (src/obs). When set, the driver wires the
  /// per-event histograms and trace spans of the machine (event queue,
  /// network, compute spans) and every RouterNode (route spans) to it, and
  /// publishes the run's finished stats as counters at its end. Not owned;
  /// must outlive the run.
  obs::Obs* obs = nullptr;

  /// Throws std::invalid_argument, naming the field and its value, when
  /// this configuration cannot run on `procs` processors.
  void validate(std::int32_t procs) const;
};

}  // namespace locus
