// TCP segment wire format.
//
// The header mirrors real TCP's fields but uses 64-bit sequence numbers so a
// long simulation never has to reason about 32-bit wrap; everything an
// on-path adversary is allowed to read (ports, seq/ack, flags, window,
// payload length) is in the clear, exactly as with real TCP.
//
// Layout (big-endian, 28 bytes):
//   u16 src_port | u16 dst_port | u64 seq | u64 ack |
//   u8 flags | u8 reserved | u32 window | u16 payload_len
#pragma once

#include <cstdint>

#include "h2priv/util/bytes.hpp"

namespace h2priv::tcp {

inline constexpr std::size_t kHeaderBytes = 28;

/// Flag bits (combinable).
enum : std::uint8_t {
  kFlagSyn = 0x01,
  kFlagAck = 0x02,
  kFlagFin = 0x04,
  kFlagRst = 0x08,
};

struct Segment {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint8_t flags = 0;
  std::uint32_t window = 0;
  util::Bytes payload;

  [[nodiscard]] bool syn() const noexcept { return (flags & kFlagSyn) != 0; }
  [[nodiscard]] bool has_ack() const noexcept { return (flags & kFlagAck) != 0; }
  [[nodiscard]] bool fin() const noexcept { return (flags & kFlagFin) != 0; }
  [[nodiscard]] bool rst() const noexcept { return (flags & kFlagRst) != 0; }

  /// Sequence space the segment occupies (payload + SYN/FIN each count 1).
  [[nodiscard]] std::uint64_t seq_len() const noexcept {
    return payload.size() + (syn() ? 1u : 0u) + (fin() ? 1u : 0u);
  }

  [[nodiscard]] util::Bytes encode() const;
  /// Throws util::OutOfBounds / std::invalid_argument on malformed input.
  [[nodiscard]] static Segment decode(util::BytesView wire);
};

/// Parses only the header of an encoded segment — what an on-path observer
/// does. Returns the header fields and the payload view (still "encrypted"
/// at the TLS layer; the observer may parse TLS record headers from it).
///
/// Also doubles as the *encode* input: tcp::Connection fills the header
/// fields, encode_segment_header() serialises them into a pooled writer and
/// the send buffer gathers the payload straight behind them — the payload is
/// never copied into an owning Segment on the transmit path.
struct SegmentView {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint8_t flags = 0;
  std::uint32_t window = 0;
  util::BytesView payload;

  [[nodiscard]] bool syn() const noexcept { return (flags & kFlagSyn) != 0; }
  [[nodiscard]] bool has_ack() const noexcept { return (flags & kFlagAck) != 0; }
  [[nodiscard]] bool fin() const noexcept { return (flags & kFlagFin) != 0; }
  [[nodiscard]] bool rst() const noexcept { return (flags & kFlagRst) != 0; }

  /// Sequence space the segment occupies (payload + SYN/FIN each count 1).
  [[nodiscard]] std::uint64_t seq_len() const noexcept {
    return payload.size() + (syn() ? 1u : 0u) + (fin() ? 1u : 0u);
  }
};
[[nodiscard]] SegmentView peek(util::BytesView wire);

/// Serialises the header of a segment carrying `payload_len` payload bytes
/// (s.payload is not read), reserving room for header and payload.
void encode_segment_header(util::ByteWriter& w, const SegmentView& s,
                           std::size_t payload_len);

/// Serialises header + payload into `w` with the exact wire size reserved.
/// Byte-for-byte identical to Segment::encode() for the same fields.
void encode_segment(util::ByteWriter& w, const SegmentView& s);

}  // namespace h2priv::tcp
