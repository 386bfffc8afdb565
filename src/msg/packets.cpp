#include "msg/packets.hpp"

#include "support/assert.hpp"

namespace locus {

std::size_t msg_kind_index(std::int32_t type) {
  switch (type) {
    case kMsgSendLocData: return 0;
    case kMsgSendRmtData: return 1;
    case kMsgReqLocData: return 2;
    case kMsgReqRmtData: return 3;
    case kMsgRspRmtData: return 4;
    case kMsgWireRequest: return 5;
    case kMsgWireGrant: return 6;
    case kMsgAck: return 7;
    default: return kMsgKinds - 1;
  }
}

std::int32_t update_packet_bytes(PacketStructure structure, const Rect& bbox,
                                 bool absolute, std::int64_t segments_changed,
                                 std::int64_t region_area) {
  const std::int32_t per_cell = absolute ? kAbsoluteBytesPerCell : kDeltaBytesPerCell;
  std::int64_t payload = 0;
  switch (structure) {
    case PacketStructure::kBoundingBox:
      payload = bbox.area() * per_cell;
      break;
    case PacketStructure::kWholeRegion:
      payload = region_area * per_cell;
      break;
    case PacketStructure::kWireBased:
      payload = segments_changed * kWireSegmentBytes;
      break;
  }
  LOCUS_ASSERT(payload >= 0);
  return kUpdateHeaderBytes + static_cast<std::int32_t>(payload);
}

std::int32_t batched_update_packet_bytes(std::span<const UpdateBlock> blocks,
                                         bool absolute) {
  const std::int32_t per_cell = absolute ? kAbsoluteBytesPerCell : kDeltaBytesPerCell;
  std::int64_t payload = 2;  // u16 block count
  for (const UpdateBlock& block : blocks) {
    payload += 8 + block.bbox.area() * per_cell;
  }
  LOCUS_ASSERT(payload >= 2);
  return kUpdateHeaderBytes + static_cast<std::int32_t>(payload);
}

std::int32_t request_packet_bytes() { return kUpdateHeaderBytes; }

std::int32_t grant_packet_bytes() { return kUpdateHeaderBytes + 8; }

std::int32_t wire_request_packet_bytes(std::int32_t resident_regions) {
  LOCUS_ASSERT(resident_regions >= 0);
  return kUpdateHeaderBytes + 6 + 2 * resident_regions;
}

std::int32_t batch_grant_packet_bytes(std::int32_t wires) {
  LOCUS_ASSERT(wires >= 0);
  return kUpdateHeaderBytes + 6 + 4 * wires;
}

std::int32_t ack_packet_bytes() { return kUpdateHeaderBytes + kTransportFrameBytes; }

}  // namespace locus
