// Update packet formats (paper §4.3.1).
//
// All update traffic carries a 16-byte header (type, source, region id,
// bounding box as four 16-bit coordinates, length). Payload encoding:
//   * absolute cell values (SendLocData / ReqRmtData responses): 2 B/cell —
//     occupancy counts fit 16 bits;
//   * delta values (SendRmtData / ReqLocData responses): 1 B/cell — deltas
//     between updates stay small and signed;
//   * requests: header only.
// Every data update carries its cells as a block list (RegionUpdatePayload):
// one block under the unbatched formats, one tight block per tile when
// ShardConfig::batch_updates is set; the two differ only in byte counts.
// The dynamic wire queue (§4.2, DESIGN.md §11) has one grant format and two
// request formats: the header-only single-wire request, and the extended
// request that reports completions and resident regions.
// The PacketStructure ablation (§4.3.1) changes how many bytes an update
// of the same information costs: wire-based packets pay 6 B per changed
// wire segment, whole-region packets pay 2 B for every cell of the owned
// region. The simulation always transfers the full delta/absolute data (the
// three structures are informationally equivalent here); only byte counts
// and scan costs differ. DESIGN.md §5 records this modeling choice.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "geom/partition.hpp"
#include "geom/rect.hpp"
#include "grid/delta_array.hpp"
#include "msg/config.hpp"
#include "sim/packet.hpp"

namespace locus {

/// Network packet types used by the message passing router.
enum MsgType : std::int32_t {
  kMsgSendLocData = 1,  ///< unsolicited absolute own-region update
  kMsgSendRmtData = 2,  ///< unsolicited (or ReqLocData-response) delta update
  kMsgReqLocData = 3,   ///< owner asks a remote for its pending deltas
  kMsgReqRmtData = 4,   ///< remote asks the owner for absolute data
  kMsgRspRmtData = 5,   ///< owner's absolute response to ReqRmtData
  kMsgWireRequest = 10, ///< dynamic assignment: give me a wire to route
  kMsgWireGrant = 11,   ///< dynamic assignment: wire id(s) (or no-more)
  kMsgAck = 12,         ///< reliable transport: standalone cumulative ack
};

/// Dense per-kind slots for traffic tallies: one per MsgType in declaration
/// order, then a last slot for any other value.
inline constexpr std::array<const char*, 9> kMsgKindNames = {
    "SendLocData", "SendRmtData", "ReqLocData", "ReqRmtData", "RspRmtData",
    "WireRequest", "WireGrant",   "Ack",        "Unknown",
};
inline constexpr std::size_t kMsgKinds = kMsgKindNames.size();

/// Slot of a MsgType value in kMsgKindNames; kMsgKinds - 1 for unknown values.
std::size_t msg_kind_index(std::int32_t type);
/// Name of a MsgType value ("SendLocData", ...; "Unknown" otherwise).
inline const char* msg_kind_name(std::int32_t type) {
  return kMsgKindNames[msg_kind_index(type)];
}

/// Packets and payload bytes of one message kind.
struct KindTraffic {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};
using KindTally = std::array<KindTraffic, kMsgKinds>;

inline constexpr std::int32_t kUpdateHeaderBytes = 16;
inline constexpr std::int32_t kAbsoluteBytesPerCell = 2;
inline constexpr std::int32_t kDeltaBytesPerCell = 1;
inline constexpr std::int32_t kWireSegmentBytes = 6;
/// Reliable-transport frame (u32 sequence number + u32 piggybacked
/// cumulative ack) added to every packet of a transport-enabled run. It
/// follows the 16-byte header and precedes the payload.
inline constexpr std::int32_t kTransportFrameBytes = 8;

/// Payload of every data-carrying update: a list of disjoint blocks
/// (grid/delta_array.hpp), each the row-major cells of one rectangle. An
/// unbatched update carries one block, the bounding box of its changes (or
/// the requested window of a ReqRmtData response). A region-batched update
/// (ShardConfig::batch_updates) carries one tight block per tile, in
/// row-major tile order.
struct RegionUpdatePayload : PacketPayload {
  ProcId region = -1;  ///< region the cells belong to
  bool absolute = false;
  std::vector<UpdateBlock> blocks;
};

/// Payload of ReqLocData / ReqRmtData.
struct RequestPayload : PacketPayload {
  ProcId region = -1;  ///< region an update is wanted for
  Rect bbox;           ///< sub-box of interest (empty = whole region)
};

/// On-wire size of a data update under the configured packet structure.
/// `segments_changed` is the number of wire segments modified since the
/// last update (wire-based structure); `region_area` the full owned-region
/// cell count (whole-region structure).
std::int32_t update_packet_bytes(PacketStructure structure, const Rect& bbox,
                                 bool absolute, std::int64_t segments_changed,
                                 std::int64_t region_area);

/// On-wire size of a region-batched update: header + u16 block count + per
/// block an 8-byte rectangle and its cells. Only defined for the
/// kBoundingBox packet structure (batching tightens exactly the bbox form);
/// an unbatched update of one block costs update_packet_bytes().
std::int32_t batched_update_packet_bytes(std::span<const UpdateBlock> blocks,
                                         bool absolute);

/// Payload of kMsgWireRequest (DESIGN.md §11): how many wires the requester
/// finished since its last report, plus, under GrantPolicy::kLocality, the
/// regions where its TileGrid view currently backs tiles (nearest first,
/// capped) so the queue owner can grant wires the requester's working set
/// already covers. The §4.2 single-wire format is header-only on the wire
/// (request_packet_bytes); its one completion is implied by the request.
struct WireRequestPayload : PacketPayload {
  std::int32_t completed = 0;
  std::vector<ProcId> resident;
};

/// Payload of kMsgWireGrant: the wires handed over (empty grant = no more
/// wires) and the iteration they belong to. Batches never straddle an
/// iteration boundary.
struct WireListPayload : PacketPayload {
  std::int32_t iteration = 0;
  std::vector<WireId> wires;
};

/// On-wire size of a request packet (header only): ReqLocData, ReqRmtData
/// and the single-wire kMsgWireRequest.
std::int32_t request_packet_bytes();

/// On-wire size of a grant of at most one wire (header + id + iteration).
std::int32_t grant_packet_bytes();

/// On-wire size of an extended wire request: header + i32 completed count +
/// u16 region count + 2 B per resident region id.
std::int32_t wire_request_packet_bytes(std::int32_t resident_regions);

/// On-wire size of a batched wire grant: header + u16 wire
/// count + i32 iteration + 4 B per wire id.
std::int32_t batch_grant_packet_bytes(std::int32_t wires);

/// On-wire size of a standalone transport ack (header + transport frame; the
/// cumulative ack value rides in the frame, so there is no payload).
std::int32_t ack_packet_bytes();

}  // namespace locus
