// Adversary-side TCP stream reconstruction and TLS record boundary
// extraction for one direction of one connection.
//
// The monitor reads cleartext TCP headers off transiting packets, reassembles
// the byte stream (absorbing retransmissions exactly as tshark's TCP
// dissector does), and scans the 5-byte TLS record headers to produce
// RecordObservations. Payload bytes stay opaque and the scanner copies no
// body byte: Reassembly hands the stream up as views (in-order segments in
// place, out-of-order ones from its pages), and the scanner keeps only a
// 5-byte header accumulator, the body bytes still to skip and the running
// stream offset. A record is emitted at the packet that delivers its last
// body byte.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "h2priv/analysis/observation.hpp"
#include "h2priv/tcp/reassembly.hpp"
#include "h2priv/tls/record.hpp"
#include "h2priv/util/bytes.hpp"

namespace h2priv::analysis {

class MonitorStream {
 public:
  explicit MonitorStream(net::Direction dir) noexcept : dir_(dir) {}

  /// Feeds one observed packet (already peeked). Emits RecordObservations
  /// for every record that became complete.
  void on_packet(const PacketObservation& pkt, util::BytesView payload,
                 util::TimePoint now);

  /// Fires for each completed record, in stream order.
  std::function<void(const RecordObservation&)> on_record;

  [[nodiscard]] const std::vector<RecordObservation>& records() const noexcept {
    return records_;
  }
  /// In-order stream bytes delivered so far.
  [[nodiscard]] std::uint64_t stream_bytes() const noexcept {
    return reassembly_.rcv_nxt() - 1;
  }

 private:
  /// Advances the header scanner over freshly delivered in-order bytes.
  /// Throws tls::TlsError from the call that completes a malformed header.
  void scan(util::BytesView bytes, util::TimePoint now);

  net::Direction dir_;
  tcp::Reassembly reassembly_{1};  // data starts at seq 1 (SYN occupies 0)
  std::array<std::uint8_t, tls::kHeaderBytes> header_{};  // current header
  std::size_t header_have_ = 0;    // bytes of header_ received
  tls::RecordHeader current_{};    // parsed once header_have_ reaches 5
  std::size_t body_left_ = 0;      // body bytes of current_ still to come
  std::uint64_t record_offset_ = 0;  // stream offset of the current header
  std::vector<RecordObservation> records_;
};

}  // namespace h2priv::analysis
