// What the on-path adversary is allowed to see.
//
// PacketObservation: cleartext TCP/IP header fields plus sizes.
// RecordObservation: TLS record header (type + length) located at a TCP
// stream offset — the output of reassembling the visible byte stream and
// reading the 5-byte record headers, i.e. tshark's
// `ssl.record.content_type` view. Neither type carries payload bytes:
// opacity is enforced structurally.
#pragma once

#include <cstdint>

#include "h2priv/net/packet.hpp"
#include "h2priv/tls/record.hpp"
#include "h2priv/util/units.hpp"

namespace h2priv::analysis {

struct PacketObservation {
  util::TimePoint time;
  net::Direction dir = net::Direction::kClientToServer;
  std::int64_t wire_size = 0;  // IP + TCP header + payload
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint8_t flags = 0;
  std::size_t payload_len = 0;
};

struct RecordObservation {
  util::TimePoint time;  // when the record became fully visible on the wire
  net::Direction dir = net::Direction::kClientToServer;
  tls::ContentType type = tls::ContentType::kApplicationData;
  std::size_t ciphertext_len = 0;
  std::uint64_t stream_offset = 0;  // offset of the record header in the TCP stream

  /// Plaintext payload estimate (ciphertext minus the AEAD tag).
  [[nodiscard]] std::size_t plaintext_estimate() const noexcept {
    return ciphertext_len >= tls::kAeadOverhead ? ciphertext_len - tls::kAeadOverhead : 0;
  }

  friend bool operator==(const RecordObservation&, const RecordObservation&) = default;
};

}  // namespace h2priv::analysis
