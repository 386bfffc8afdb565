#include "msg/packets.hpp"

#include <limits>

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

namespace {

bool is_update_type(std::int32_t type) {
  return type == kMsgSendLocData || type == kMsgSendRmtData ||
         type == kMsgRspRmtData;
}

bool is_known_type(std::int32_t type) {
  return is_update_type(type) || type == kMsgReqLocData ||
         type == kMsgReqRmtData || type == kMsgWireRequest ||
         type == kMsgWireGrant || type == kMsgAck;
}

/// Absolute payloads carry i16 cells (occupancy fits 16 bits; drifted views
/// can go transiently negative, hence signed); deltas carry i8 cells.
bool fits_cell(std::int32_t value, bool absolute) {
  if (absolute) {
    return value >= std::numeric_limits<std::int16_t>::min() &&
           value <= std::numeric_limits<std::int16_t>::max();
  }
  return value >= std::numeric_limits<std::int8_t>::min() &&
         value <= std::numeric_limits<std::int8_t>::max();
}

void put_i16(std::vector<std::uint8_t>& out, std::int32_t v) {
  const auto u = static_cast<std::uint16_t>(static_cast<std::int16_t>(v));
  out.push_back(static_cast<std::uint8_t>(u & 0xFF));
  out.push_back(static_cast<std::uint8_t>(u >> 8));
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((u >> shift) & 0xFF));
  }
}

std::int32_t get_i16(std::span<const std::uint8_t> in, std::size_t at) {
  const auto u = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(in[at]) |
      (static_cast<std::uint16_t>(in[at + 1]) << 8));
  return static_cast<std::int16_t>(u);
}

std::int32_t get_i32(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint32_t u = 0;
  for (int b = 3; b >= 0; --b) {
    u = (u << 8) | in[at + static_cast<std::size_t>(b)];
  }
  return static_cast<std::int32_t>(u);
}

bool fits_i16(std::int32_t v) {
  return v >= std::numeric_limits<std::int16_t>::min() &&
         v <= std::numeric_limits<std::int16_t>::max();
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_i32(out, static_cast<std::int32_t>(v));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint32_t>(get_i32(in, at));
}

std::uint32_t get_u16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint32_t>(in[at]) |
         (static_cast<std::uint32_t>(in[at + 1]) << 8);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

}  // namespace

std::optional<std::vector<std::uint8_t>> encode_packet(const WirePacket& packet) {
  if (!is_known_type(packet.type)) return std::nullopt;
  if (packet.type < 0 || packet.type > 255) return std::nullopt;
  if (!fits_i16(packet.region)) return std::nullopt;
  if (!fits_i16(packet.bbox.channel_lo) || !fits_i16(packet.bbox.channel_hi) ||
      !fits_i16(packet.bbox.x_lo) || !fits_i16(packet.bbox.x_hi)) {
    return std::nullopt;
  }

  const bool update = is_update_type(packet.type);
  const bool batched = !packet.blocks.empty();
  // Dynamic-scheduling fields belong only to their packet kinds.
  const bool scheduling =
      packet.type == kMsgWireRequest || packet.type == kMsgWireGrant;
  if (!scheduling && (packet.extended || packet.completed != 0 ||
                      !packet.regions.empty() || !packet.wires.empty())) {
    return std::nullopt;
  }
  std::uint32_t payload_bytes = 0;
  if (batched) {
    // Region-batched form: header bbox is the union; each block is a tight
    // rectangle inside it carrying exactly its own cells.
    if (!update || !packet.values.empty()) return std::nullopt;
    if (packet.bbox.is_empty()) return std::nullopt;
    if (packet.blocks.size() > 0xFFFF) return std::nullopt;
    if (packet.absolute != (packet.type != kMsgSendRmtData)) return std::nullopt;
    std::int64_t total_area = 0;
    for (const UpdateBlock& block : packet.blocks) {
      if (block.bbox.is_empty()) return std::nullopt;
      if (!packet.bbox.contains(block.bbox)) return std::nullopt;
      total_area += block.bbox.area();
      if (total_area > kMaxUpdateCells) return std::nullopt;
      if (static_cast<std::int64_t>(block.values.size()) != block.bbox.area()) {
        return std::nullopt;
      }
      for (std::int32_t v : block.values) {
        if (!fits_cell(v, packet.absolute)) return std::nullopt;
      }
    }
    payload_bytes = static_cast<std::uint32_t>(
        2 + static_cast<std::int64_t>(packet.blocks.size()) * 8 +
        total_area * (packet.absolute ? kAbsoluteBytesPerCell : kDeltaBytesPerCell));
  } else if (update) {
    // Updates must carry exactly one value per bbox cell, each in range.
    if (packet.bbox.is_empty()) return std::nullopt;
    const std::int64_t area = packet.bbox.area();
    if (area > kMaxUpdateCells) return std::nullopt;
    if (static_cast<std::int64_t>(packet.values.size()) != area) return std::nullopt;
    // SendLocData / responses are absolute by protocol; SendRmtData is delta.
    if (packet.absolute != (packet.type != kMsgSendRmtData)) return std::nullopt;
    for (std::int32_t v : packet.values) {
      if (!fits_cell(v, packet.absolute)) return std::nullopt;
    }
    payload_bytes = static_cast<std::uint32_t>(
        area * (packet.absolute ? kAbsoluteBytesPerCell : kDeltaBytesPerCell));
  } else {
    if (packet.absolute || !packet.values.empty()) return std::nullopt;
    switch (packet.type) {
      case kMsgWireRequest:
        if (!packet.wires.empty()) return std::nullopt;
        if (packet.extended) {
          if (packet.completed < 0) return std::nullopt;
          if (packet.regions.size() > 0xFFFF) return std::nullopt;
          for (std::int32_t r : packet.regions) {
            if (r < 0 || r > 0xFFFF) return std::nullopt;
          }
          payload_bytes = static_cast<std::uint32_t>(
              6 + 2 * packet.regions.size());
        } else if (packet.completed != 0 || !packet.regions.empty()) {
          return std::nullopt;  // legacy requests carry no payload
        }
        break;
      case kMsgWireGrant:
        if (packet.extended || packet.completed != 0 || !packet.regions.empty()) {
          return std::nullopt;
        }
        if (packet.wires.empty()) {
          if (packet.wire < kNoMoreWires) return std::nullopt;
          payload_bytes = 8;
        } else {
          // Batched grants need >= 2 wires: an 8-byte payload must stay
          // unambiguously the legacy form (6 + 4n skips 8 only for n >= 2).
          if (packet.wires.size() < 2 || packet.wires.size() > 0xFFFF) {
            return std::nullopt;
          }
          if (packet.wire != kNoMoreWires) return std::nullopt;
          for (WireId w : packet.wires) {
            if (w < 0) return std::nullopt;
          }
          payload_bytes =
              static_cast<std::uint32_t>(6 + 4 * packet.wires.size());
        }
        break;
      default:  // plain requests and acks: header (+ frame) only
        break;
    }
  }
  // A standalone ack is nothing but its transport frame.
  if (packet.type == kMsgAck && !packet.has_transport) return std::nullopt;
  if (!packet.has_transport && (packet.seq != 0 || packet.ack != 0)) {
    return std::nullopt;  // frame fields without the frame would be lost
  }
  const std::uint32_t frame_bytes =
      packet.has_transport ? static_cast<std::uint32_t>(kTransportFrameBytes) : 0;

  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(kUpdateHeaderBytes) + frame_bytes +
              payload_bytes);
  out.push_back(static_cast<std::uint8_t>(packet.type));
  out.push_back(static_cast<std::uint8_t>((packet.absolute ? 1u : 0u) |
                                          (packet.has_transport ? 2u : 0u) |
                                          (batched ? 4u : 0u)));
  put_i16(out, packet.region);
  put_i16(out, packet.bbox.channel_lo);
  put_i16(out, packet.bbox.channel_hi);
  put_i16(out, packet.bbox.x_lo);
  put_i16(out, packet.bbox.x_hi);
  put_i32(out, static_cast<std::int32_t>(payload_bytes));
  if (packet.has_transport) {
    put_u32(out, packet.seq);
    put_u32(out, packet.ack);
  }

  if (batched) {
    put_i16(out, static_cast<std::int32_t>(
                     static_cast<std::int16_t>(packet.blocks.size())));
    for (const UpdateBlock& block : packet.blocks) {
      put_i16(out, block.bbox.channel_lo);
      put_i16(out, block.bbox.channel_hi);
      put_i16(out, block.bbox.x_lo);
      put_i16(out, block.bbox.x_hi);
      for (std::int32_t v : block.values) {
        if (packet.absolute) {
          put_i16(out, v);
        } else {
          out.push_back(static_cast<std::uint8_t>(static_cast<std::int8_t>(v)));
        }
      }
    }
  } else if (update) {
    for (std::int32_t v : packet.values) {
      if (packet.absolute) {
        put_i16(out, v);
      } else {
        out.push_back(static_cast<std::uint8_t>(static_cast<std::int8_t>(v)));
      }
    }
  } else if (packet.type == kMsgWireGrant) {
    if (packet.wires.empty()) {
      put_i32(out, packet.wire);
      put_i32(out, packet.iteration);
    } else {
      put_u16(out, static_cast<std::uint32_t>(packet.wires.size()));
      put_i32(out, packet.iteration);
      for (WireId w : packet.wires) put_i32(out, w);
    }
  } else if (packet.type == kMsgWireRequest && packet.extended) {
    put_i32(out, packet.completed);
    put_u16(out, static_cast<std::uint32_t>(packet.regions.size()));
    for (std::int32_t r : packet.regions) {
      put_u16(out, static_cast<std::uint32_t>(r));
    }
  }
  LOCUS_ASSERT(out.size() == static_cast<std::size_t>(kUpdateHeaderBytes) +
                                 frame_bytes + payload_bytes);
  return out;
}

std::optional<WirePacket> decode_packet(std::span<const std::uint8_t> buffer) {
  if (buffer.size() < static_cast<std::size_t>(kUpdateHeaderBytes)) {
    return std::nullopt;
  }
  WirePacket packet;
  packet.type = buffer[0];
  if (!is_known_type(packet.type)) return std::nullopt;
  const std::uint8_t flags = buffer[1];
  if ((flags & ~0x07u) != 0) return std::nullopt;
  packet.absolute = (flags & 1u) != 0;
  packet.has_transport = (flags & 2u) != 0;
  const bool batched = (flags & 4u) != 0;
  if (batched && !is_update_type(packet.type)) return std::nullopt;
  if (packet.type == kMsgAck && !packet.has_transport) return std::nullopt;
  packet.region = get_i16(buffer, 2);
  packet.bbox.channel_lo = get_i16(buffer, 4);
  packet.bbox.channel_hi = get_i16(buffer, 6);
  packet.bbox.x_lo = get_i16(buffer, 8);
  packet.bbox.x_hi = get_i16(buffer, 10);
  const std::int64_t payload_bytes = static_cast<std::uint32_t>(get_i32(buffer, 12));
  const std::int64_t frame_bytes =
      packet.has_transport ? kTransportFrameBytes : 0;
  if (static_cast<std::int64_t>(buffer.size()) !=
      kUpdateHeaderBytes + frame_bytes + payload_bytes) {
    return std::nullopt;  // truncated or trailing garbage
  }
  if (packet.has_transport) {
    packet.seq = get_u32(buffer, kUpdateHeaderBytes);
    packet.ack = get_u32(buffer, kUpdateHeaderBytes + 4);
  }
  const std::size_t payload_at =
      static_cast<std::size_t>(kUpdateHeaderBytes + frame_bytes);

  if (batched) {
    if (packet.absolute != (packet.type != kMsgSendRmtData)) return std::nullopt;
    if (packet.bbox.is_empty()) return std::nullopt;
    if (payload_bytes < 2) return std::nullopt;
    const std::int32_t per_cell =
        packet.absolute ? kAbsoluteBytesPerCell : kDeltaBytesPerCell;
    std::size_t at = payload_at;
    const std::size_t end = payload_at + static_cast<std::size_t>(payload_bytes);
    const std::uint32_t count =
        static_cast<std::uint16_t>(static_cast<std::uint16_t>(buffer[at]) |
                                   (static_cast<std::uint16_t>(buffer[at + 1]) << 8));
    at += 2;
    if (count == 0) return std::nullopt;
    std::int64_t total_area = 0;
    packet.blocks.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      if (end - at < 8) return std::nullopt;
      UpdateBlock block;
      block.bbox.channel_lo = get_i16(buffer, at);
      block.bbox.channel_hi = get_i16(buffer, at + 2);
      block.bbox.x_lo = get_i16(buffer, at + 4);
      block.bbox.x_hi = get_i16(buffer, at + 6);
      at += 8;
      if (block.bbox.is_empty()) return std::nullopt;
      if (!packet.bbox.contains(block.bbox)) return std::nullopt;
      const std::int64_t area = block.bbox.area();
      total_area += area;
      if (total_area > kMaxUpdateCells) return std::nullopt;
      if (end - at < static_cast<std::size_t>(area * per_cell)) return std::nullopt;
      block.values.reserve(static_cast<std::size_t>(area));
      for (std::int64_t cell = 0; cell < area; ++cell) {
        if (packet.absolute) {
          block.values.push_back(get_i16(buffer, at));
          at += 2;
        } else {
          block.values.push_back(static_cast<std::int8_t>(buffer[at]));
          at += 1;
        }
      }
      packet.blocks.push_back(std::move(block));
    }
    if (at != end) return std::nullopt;  // trailing bytes inside the payload
    return packet;
  }
  if (is_update_type(packet.type)) {
    if (packet.absolute != (packet.type != kMsgSendRmtData)) return std::nullopt;
    if (packet.bbox.is_empty()) return std::nullopt;
    const std::int64_t area = packet.bbox.area();
    if (area > kMaxUpdateCells) return std::nullopt;
    const std::int32_t per_cell =
        packet.absolute ? kAbsoluteBytesPerCell : kDeltaBytesPerCell;
    if (payload_bytes != area * per_cell) return std::nullopt;
    packet.values.reserve(static_cast<std::size_t>(area));
    std::size_t at = payload_at;
    for (std::int64_t i = 0; i < area; ++i) {
      if (packet.absolute) {
        packet.values.push_back(get_i16(buffer, at));
        at += 2;
      } else {
        packet.values.push_back(static_cast<std::int8_t>(buffer[at]));
        at += 1;
      }
    }
    return packet;
  }
  if (packet.absolute) return std::nullopt;
  if (packet.type == kMsgWireGrant) {
    if (payload_bytes == 8) {
      packet.wire = get_i32(buffer, payload_at);
      if (packet.wire < kNoMoreWires) return std::nullopt;
      packet.iteration = get_i32(buffer, payload_at + 4);
      return packet;
    }
    // Batched form: u16 count (>= 2) + i32 iteration + count x i32 wires.
    if (payload_bytes < 6) return std::nullopt;
    const std::uint32_t count = get_u16(buffer, payload_at);
    if (count < 2) return std::nullopt;
    if (payload_bytes != 6 + 4 * static_cast<std::int64_t>(count)) {
      return std::nullopt;
    }
    packet.iteration = get_i32(buffer, payload_at + 2);
    packet.wires.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const WireId w = get_i32(buffer, payload_at + 6 + 4 * i);
      if (w < 0) return std::nullopt;
      packet.wires.push_back(w);
    }
    return packet;
  }
  if (packet.type == kMsgWireRequest && payload_bytes != 0) {
    // Extended form: i32 completed + u16 count + count x u16 region ids.
    if (payload_bytes < 6) return std::nullopt;
    packet.extended = true;
    packet.completed = get_i32(buffer, payload_at);
    if (packet.completed < 0) return std::nullopt;
    const std::uint32_t count = get_u16(buffer, payload_at + 4);
    if (payload_bytes != 6 + 2 * static_cast<std::int64_t>(count)) {
      return std::nullopt;
    }
    packet.regions.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      packet.regions.push_back(
          static_cast<std::int32_t>(get_u16(buffer, payload_at + 6 + 2 * i)));
    }
    return packet;
  }
  if (payload_bytes != 0) return std::nullopt;  // requests/acks: none
  return packet;
}

}  // namespace locus
