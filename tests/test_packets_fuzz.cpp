// Property/fuzz tests for the byte-level wire codec (msg/packets.hpp):
// seeded random packets round-trip exactly, and truncated or corrupted
// buffers are rejected cleanly (nullopt) rather than invoking UB. Run under
// the sanitizer preset (-DLOCUS_SANITIZE=address,undefined) these double as
// a memory-safety harness for the decoder.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/sim_pool.hpp"
#include "msg/packets.hpp"
#include "support/rng.hpp"

namespace locus {
namespace {

/// Draws a random packet that encode_packet() must accept.
WirePacket random_valid_packet(Rng& rng) {
  WirePacket p;
  bool extended_request = false;
  bool batched_grant = false;
  switch (rng.bounded(10)) {
    case 0: p.type = kMsgSendLocData; break;
    case 1: p.type = kMsgSendRmtData; break;
    case 2: p.type = kMsgRspRmtData; break;
    case 3: p.type = kMsgReqLocData; break;
    case 4: p.type = kMsgReqRmtData; break;
    case 5: p.type = kMsgWireRequest; break;
    case 6: p.type = kMsgWireGrant; break;
    case 7: p.type = kMsgWireRequest; extended_request = true; break;
    case 8: p.type = kMsgWireGrant; batched_grant = true; break;
    default: p.type = kMsgAck; break;
  }
  p.region = static_cast<ProcId>(rng.bounded(64));
  const bool update = p.type == kMsgSendLocData || p.type == kMsgSendRmtData ||
                      p.type == kMsgRspRmtData;
  if (update) {
    p.absolute = p.type != kMsgSendRmtData;
    const auto channel_lo = static_cast<std::int32_t>(rng.bounded(8));
    const auto x_lo = static_cast<std::int32_t>(rng.bounded(300));
    p.bbox = Rect::of(channel_lo,
                      channel_lo + static_cast<std::int32_t>(rng.bounded(4)),
                      x_lo, x_lo + static_cast<std::int32_t>(rng.bounded(40)));
    // i16 range for absolute data, i8 for deltas.
    const std::int64_t span = p.absolute ? 32767 : 127;
    auto draw_cell = [&] {
      return static_cast<std::int32_t>(
          static_cast<std::int64_t>(
              rng.bounded(static_cast<std::uint64_t>(2 * span + 1))) -
          span);
    };
    if (rng.chance(0.3)) {
      // Region-batched form (flag bit 2): tight disjoint blocks inside the
      // header bbox. Split the bbox into per-channel-row strips.
      for (std::int32_t c = p.bbox.channel_lo; c <= p.bbox.channel_hi; ++c) {
        if (rng.chance(0.25)) continue;  // blocks need not tile the bbox
        UpdateBlock block;
        const auto width = p.bbox.x_hi - p.bbox.x_lo;
        const auto lo = p.bbox.x_lo +
                        static_cast<std::int32_t>(rng.bounded(
                            static_cast<std::uint64_t>(width) + 1));
        block.bbox = Rect::of(c, c, lo,
                              lo + static_cast<std::int32_t>(rng.bounded(
                                       static_cast<std::uint64_t>(
                                           p.bbox.x_hi - lo) + 1)));
        for (std::int64_t i = 0; i < block.bbox.area(); ++i) {
          block.values.push_back(draw_cell());
        }
        p.blocks.push_back(std::move(block));
      }
      if (p.blocks.empty()) {
        UpdateBlock block;
        block.bbox = Rect::of(p.bbox.channel_lo, p.bbox.channel_lo,
                              p.bbox.x_lo, p.bbox.x_lo);
        block.values.push_back(draw_cell());
        p.blocks.push_back(std::move(block));
      }
    } else {
      const std::int64_t area =
          std::int64_t{p.bbox.channel_hi - p.bbox.channel_lo + 1} *
          (p.bbox.x_hi - p.bbox.x_lo + 1);
      p.values.reserve(static_cast<std::size_t>(area));
      for (std::int64_t i = 0; i < area; ++i) p.values.push_back(draw_cell());
    }
  } else if (p.type == kMsgWireGrant && batched_grant) {
    // Batched grants carry >= 2 non-negative wire ids.
    const std::size_t n = 2 + rng.bounded(14);
    for (std::size_t i = 0; i < n; ++i) {
      p.wires.push_back(static_cast<WireId>(rng.bounded(100'000)));
    }
    p.iteration = static_cast<std::int32_t>(rng.bounded(8));
  } else if (p.type == kMsgWireGrant) {
    p.wire = static_cast<WireId>(rng.bounded(10'000)) - 1;  // includes -1
    p.iteration = static_cast<std::int32_t>(rng.bounded(8));
  } else if (p.type == kMsgWireRequest && extended_request) {
    p.extended = true;
    p.completed = static_cast<std::int32_t>(rng.bounded(1000));
    const std::size_t n = rng.bounded(9);  // 0 resident regions is valid
    for (std::size_t i = 0; i < n; ++i) {
      p.regions.push_back(static_cast<ProcId>(rng.bounded(256)));
    }
  } else if (p.type != kMsgAck && rng.chance(0.5)) {
    // Requests may scope a sub-box of interest.
    p.bbox = Rect::of(0, 1, 2, 3);
  }
  // Any kind may carry the reliable-transport frame; kMsgAck must (the
  // frame is the ack). Seq/ack exercise the full u32 range.
  if (p.type == kMsgAck || rng.chance(0.5)) {
    p.has_transport = true;
    p.seq = static_cast<std::uint32_t>(rng.bounded(std::uint64_t{1} << 32));
    p.ack = static_cast<std::uint32_t>(rng.bounded(std::uint64_t{1} << 32));
  }
  return p;
}

/// 1000 seeded cases: encode -> decode reproduces the packet exactly. The
/// seeds are independent, so they fan out on the SimPool (--threads /
/// LOCUS_THREADS; serial by default); verdicts are collected in seed order
/// and asserted on the main thread, so failure output is deterministic.
TEST(PacketCodecFuzz, RoundTrip1000Seeds) {
  constexpr std::size_t kSeeds = 1000;
  std::vector<std::string> failures(kSeeds);
  SimPool().run_indexed(kSeeds, [&](std::size_t i) {
    Rng rng(static_cast<std::uint64_t>(i));
    const WirePacket packet = random_valid_packet(rng);
    const auto bytes = encode_packet(packet);
    if (!bytes.has_value()) {
      failures[i] = "encode rejected a valid packet";
      return;
    }
    const auto back = decode_packet(*bytes);
    if (!back.has_value()) {
      failures[i] = "decode rejected its own encoding";
      return;
    }
    if (!(packet == *back)) failures[i] = "round-trip mismatch";
  });
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    EXPECT_EQ(failures[seed], "") << "seed " << seed;
  }
}

/// Every strict prefix of a valid encoding is rejected, as is any buffer
/// with trailing garbage appended.
TEST(PacketCodecFuzz, TruncatedAndPaddedBuffersRejected) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const WirePacket packet = random_valid_packet(rng);
    const auto bytes = encode_packet(packet);
    ASSERT_TRUE(bytes.has_value());
    for (std::size_t len = 0; len < bytes->size(); ++len) {
      const std::vector<std::uint8_t> prefix(bytes->begin(),
                                             bytes->begin() +
                                                 static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(decode_packet(prefix).has_value())
          << "trial " << trial << " len " << len;
    }
    std::vector<std::uint8_t> padded = *bytes;
    padded.push_back(0xAB);
    EXPECT_FALSE(decode_packet(padded).has_value());
  }
}

/// Single-byte corruption at every offset: the decoder must either reject
/// the buffer or produce a packet it is itself willing to re-encode. No
/// crash, no out-of-bounds read (the sanitizer preset enforces the latter).
TEST(PacketCodecFuzz, CorruptedBytesFailCleanly) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const WirePacket packet = random_valid_packet(rng);
    const auto bytes = encode_packet(packet);
    ASSERT_TRUE(bytes.has_value());
    for (std::size_t off = 0; off < bytes->size(); ++off) {
      std::vector<std::uint8_t> corrupt = *bytes;
      corrupt[off] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
      const auto decoded = decode_packet(corrupt);
      if (decoded.has_value()) {
        EXPECT_TRUE(encode_packet(*decoded).has_value())
            << "trial " << trial << " offset " << off;
      }
    }
  }
}

/// Type bytes outside MsgType (a gap value and the two just above kMsgAck)
/// are rejected in both directions. The decode side re-types two valid
/// encodings: a header-only request, and an extended wire request whose
/// 6-byte payload (completed 0, no regions) also reads as an empty wire
/// list.
TEST(PacketCodecFuzz, UnassignedTypeBytesRejected) {
  WirePacket header_only;
  header_only.type = kMsgReqLocData;
  header_only.region = 3;
  WirePacket with_payload;
  with_payload.type = kMsgWireRequest;
  with_payload.region = 3;
  with_payload.extended = true;
  const auto header_bytes = encode_packet(header_only);
  const auto payload_bytes = encode_packet(with_payload);
  ASSERT_TRUE(header_bytes.has_value());
  ASSERT_TRUE(payload_bytes.has_value());
  for (const std::int32_t type : {6, 13, 14}) {
    WirePacket p;
    p.type = type;
    p.region = 3;
    EXPECT_FALSE(encode_packet(p).has_value()) << "type " << type;
    for (std::vector<std::uint8_t> buffer : {*header_bytes, *payload_bytes}) {
      buffer[0] = static_cast<std::uint8_t>(type);
      EXPECT_FALSE(decode_packet(buffer).has_value())
          << "type " << type << " size " << buffer.size();
    }
  }
}

/// Random garbage buffers (including pathological payload-length fields)
/// never crash the decoder.
TEST(PacketCodecFuzz, RandomGarbageRejectedOrSane) {
  Rng rng(1989);
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<std::uint8_t> junk(rng.bounded(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.bounded(256));
    const auto decoded = decode_packet(junk);
    if (decoded.has_value()) {
      EXPECT_TRUE(encode_packet(*decoded).has_value()) << "trial " << trial;
    }
  }
}

/// Oversized declared payloads are rejected without allocating them.
TEST(PacketCodecFuzz, HugeDeclaredPayloadRejected) {
  WirePacket p;
  p.type = kMsgSendLocData;
  p.region = 0;
  p.absolute = true;
  p.bbox = Rect::of(0, 0, 0, 0);
  p.values = {1};
  auto bytes = encode_packet(p);
  ASSERT_TRUE(bytes.has_value());
  // Claim a 4 GiB payload in the header; buffer stays tiny.
  (*bytes)[12] = 0xFF;
  (*bytes)[13] = 0xFF;
  (*bytes)[14] = 0xFF;
  (*bytes)[15] = 0xFF;
  EXPECT_FALSE(decode_packet(*bytes).has_value());
}

/// A canonical batched update used by the malformed-input cases below.
WirePacket valid_batched_packet() {
  WirePacket p;
  p.type = kMsgSendRmtData;
  p.region = 3;
  p.absolute = false;
  p.bbox = Rect::of(0, 3, 10, 40);
  UpdateBlock a;
  a.bbox = Rect::of(0, 1, 10, 13);
  a.values.assign(static_cast<std::size_t>(a.bbox.area()), -2);
  UpdateBlock b;
  b.bbox = Rect::of(3, 3, 30, 40);
  b.values.assign(static_cast<std::size_t>(b.bbox.area()), 5);
  p.blocks = {std::move(a), std::move(b)};
  return p;
}

/// Batched round-trip: flag bit 2 set on the wire, size matches the byte
/// model the time accounting charges, and decode reproduces every block.
TEST(BatchedPacketCodec, RoundTripMatchesByteModel) {
  const WirePacket p = valid_batched_packet();
  const auto bytes = encode_packet(p);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ((*bytes)[1] & 4u, 4u);
  EXPECT_EQ(static_cast<std::int32_t>(bytes->size()),
            batched_update_packet_bytes(p.blocks, p.absolute));
  const auto back = decode_packet(*bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, p);
}

TEST(BatchedPacketCodec, EncodeRejectsMalformedBlocks) {
  {
    WirePacket p = valid_batched_packet();
    p.blocks[1].bbox = Rect::of(3, 3, 30, 50);  // escapes the header bbox
    p.blocks[1].values.assign(static_cast<std::size_t>(21), 5);
    EXPECT_FALSE(encode_packet(p).has_value());
  }
  {
    WirePacket p = valid_batched_packet();
    p.blocks[0].values.pop_back();  // value count != block area
    EXPECT_FALSE(encode_packet(p).has_value());
  }
  {
    WirePacket p = valid_batched_packet();
    p.blocks[0].values[0] = 1000;  // delta cells are i8 on the wire
    EXPECT_FALSE(encode_packet(p).has_value());
  }
  {
    WirePacket p = valid_batched_packet();
    p.values = {1};  // batched and flat payloads are mutually exclusive
    EXPECT_FALSE(encode_packet(p).has_value());
  }
  {
    WirePacket p = valid_batched_packet();
    p.type = kMsgReqRmtData;  // only update types carry blocks
    p.absolute = false;
    EXPECT_FALSE(encode_packet(p).has_value());
  }
}

TEST(BatchedPacketCodec, DecodeRejectsCorruptBlockStructure) {
  const WirePacket p = valid_batched_packet();
  const auto bytes = encode_packet(p);
  ASSERT_TRUE(bytes.has_value());
  {
    // Inflate the u16 block count past the payload.
    std::vector<std::uint8_t> corrupt = *bytes;
    corrupt[16] = 0xFF;
    corrupt[17] = 0x7F;
    EXPECT_FALSE(decode_packet(corrupt).has_value());
  }
  {
    // Batched flag on a non-update type.
    std::vector<std::uint8_t> corrupt = *bytes;
    corrupt[0] = static_cast<std::uint8_t>(kMsgReqRmtData);
    EXPECT_FALSE(decode_packet(corrupt).has_value());
  }
  {
    // Reserved flag bits must stay rejected (mask is ~0x07).
    std::vector<std::uint8_t> corrupt = *bytes;
    corrupt[1] |= 0x08;
    EXPECT_FALSE(decode_packet(corrupt).has_value());
  }
  // Every strict prefix dies cleanly, exercising the per-block bounds
  // checks (not just the header ones).
  for (std::size_t len = 0; len < bytes->size(); ++len) {
    const std::vector<std::uint8_t> prefix(
        bytes->begin(), bytes->begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(decode_packet(prefix).has_value()) << "len " << len;
  }
}

/// kNoMoreWires is the floor of the grant wire-id range: the codec rejects
/// anything below it in both directions, and batch entries must not
/// even carry the sentinel.
TEST(DynamicPacketCodec, WireIdsBelowSentinelRejected) {
  {
    WirePacket p;
    p.type = kMsgWireGrant;
    p.region = 0;
    p.wire = kNoMoreWires;  // the sentinel itself is valid on single grants
    p.iteration = 1;
    const auto bytes = encode_packet(p);
    ASSERT_TRUE(bytes.has_value());
    EXPECT_TRUE(decode_packet(*bytes).has_value());
    p.wire = kNoMoreWires - 1;
    EXPECT_FALSE(encode_packet(p).has_value());
    // Patch the encoded wire id (payload bytes [16..19]) to -2.
    std::vector<std::uint8_t> corrupt = *bytes;
    corrupt[16] = 0xFE;
    corrupt[17] = 0xFF;
    corrupt[18] = 0xFF;
    corrupt[19] = 0xFF;
    EXPECT_FALSE(decode_packet(corrupt).has_value());
  }
  {
    // Batched grant entries must be actual wires (>= 0).
    WirePacket p;
    p.type = kMsgWireGrant;
    p.region = 0;
    p.wires = {5, kNoMoreWires};
    p.iteration = 0;
    EXPECT_FALSE(encode_packet(p).has_value());
    p.wires = {5, 9};
    const auto bytes = encode_packet(p);
    ASSERT_TRUE(bytes.has_value());
    // Payload: u16 count [16..17], i32 iteration [18..21], wires from [22].
    std::vector<std::uint8_t> corrupt = *bytes;
    corrupt[26] = 0xFF;  // second wire id -> negative
    corrupt[27] = 0xFF;
    corrupt[28] = 0xFF;
    corrupt[29] = 0xFF;
    EXPECT_FALSE(decode_packet(corrupt).has_value());
  }
}

TEST(DynamicPacketCodec, ExtendedFormsRoundTrip) {
  {
    WirePacket p;
    p.type = kMsgWireRequest;
    p.region = 7;
    p.extended = true;
    p.completed = 3;
    p.regions = {7, 6, 11};
    const auto bytes = encode_packet(p);
    ASSERT_TRUE(bytes.has_value());
    EXPECT_EQ(static_cast<std::int32_t>(bytes->size()),
              wire_request_packet_bytes(3));
    const auto back = decode_packet(*bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  {
    WirePacket p;
    p.type = kMsgWireGrant;
    p.region = 1;
    p.wires = {10, 20, 30};
    p.iteration = 1;
    const auto bytes = encode_packet(p);
    ASSERT_TRUE(bytes.has_value());
    EXPECT_EQ(static_cast<std::int32_t>(bytes->size()),
              batch_grant_packet_bytes(3));
    const auto back = decode_packet(*bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
}

}  // namespace
}  // namespace locus
