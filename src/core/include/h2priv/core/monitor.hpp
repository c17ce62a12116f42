// TrafficMonitor — the adversary's tshark (Section V component (a)).
//
// Taps the compromised middlebox, reads cleartext TCP headers, reassembles
// both directions, extracts TLS record boundaries, and counts client GET
// requests using the paper's `ssl.record.content_type == 23` filter plus a
// size heuristic that separates request header blocks from control chatter
// (window updates, settings acks, stream resets are all much smaller).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "h2priv/analysis/monitor_stream.hpp"
#include "h2priv/analysis/observation.hpp"
#include "h2priv/net/middlebox.hpp"
#include "h2priv/tcp/segment.hpp"

namespace h2priv::core {

struct MonitorConfig {
  /// Minimum record plaintext for a client->server record to count as a GET.
  std::size_t min_get_record_bytes = 25;
  /// Maximum — request header blocks are small; bulkier uploads are not GETs.
  std::size_t max_get_record_bytes = 512;
  /// Qualifying records to skip at session start (the client's SETTINGS
  /// flight rides in application-data records of GET-like size).
  int setup_records_to_skip = 1;

  /// Stream-reset detection: a reset episode cancels dozens of streams
  /// back-to-back, so their tiny RST_STREAM records (13 bytes of plaintext
  /// each) coalesce into a single TCP segment. Tiny records that arrive one
  /// per packet (e.g. HPACK-compressed re-GETs) never trip this.
  std::size_t reset_record_max_bytes = 20;
  int reset_records_per_packet_threshold = 8;

  /// Keep a copy of every PacketObservation (packets() accessor). Replay
  /// turns this off so monitoring a corpus-scale trace costs O(1)
  /// memory in packets; packets_seen() stays exact either way.
  bool retain_packets = true;

  /// The GET rule's size test: an application-data record whose plaintext
  /// estimate lies in [min_get_record_bytes, max_get_record_bytes]. The
  /// first setup_records_to_skip such records are setup, every later one is
  /// a GET.
  [[nodiscard]] bool get_sized(const analysis::RecordObservation& rec) const noexcept {
    if (rec.type != tls::ContentType::kApplicationData) return false;
    const std::size_t plaintext = rec.plaintext_estimate();
    return plaintext >= min_get_record_bytes && plaintext <= max_get_record_bytes;
  }
};

/// The GET count a TrafficMonitor reaches over a finished client->server
/// record sequence: the GET-sized records past the setup skip.
[[nodiscard]] std::int64_t count_gets(
    std::span<const analysis::RecordObservation> c2s_records,
    const MonitorConfig& config = {});

class TrafficMonitor {
 public:
  TrafficMonitor(net::Middlebox& middlebox, MonitorConfig config = {});

  /// Standalone monitor with no live tap: observations are pushed through
  /// observe() — the offline-replay path (capture::replay feeds a stored
  /// .h2t trace through exactly the live analysis code).
  explicit TrafficMonitor(MonitorConfig config = {});

  /// Feeds one packet observation plus the visible TCP payload bytes (what
  /// tcp::peek exposes). The live middlebox tap and the offline replayer
  /// both funnel through here, so their analysis state is identical.
  void observe(const analysis::PacketObservation& obs, util::BytesView payload);

  /// Fires on each detected GET with its 1-based index.
  std::function<void(int index, util::TimePoint when)> on_get_request;

  /// Fires when a client stream-reset flurry is detected (Section IV-D: the
  /// cue that the drop phase has done its job).
  std::function<void(util::TimePoint when)> on_reset_detected;

  /// Fires on every packet observation, before stream analysis — the
  /// capture tap (core::run_once streams these into a TraceWriter).
  std::function<void(const analysis::PacketObservation& obs)> on_packet_observed;

  [[nodiscard]] int get_count() const noexcept { return get_count_; }
  [[nodiscard]] const std::vector<analysis::RecordObservation>& records(
      net::Direction dir) const noexcept {
    return streams_[static_cast<std::size_t>(dir)].records();
  }
  /// Retained observations (empty when config.retain_packets is off).
  [[nodiscard]] const std::vector<analysis::PacketObservation>& packets() const noexcept {
    return packets_;
  }
  [[nodiscard]] std::uint64_t packets_seen() const noexcept { return packets_seen_; }

 private:
  void on_packet(net::Direction dir, const net::Packet& packet, util::TimePoint now);
  void on_record(const analysis::RecordObservation& rec);

  MonitorConfig config_;
  analysis::MonitorStream streams_[2] = {
      analysis::MonitorStream(net::Direction::kClientToServer),
      analysis::MonitorStream(net::Direction::kServerToClient)};
  std::vector<analysis::PacketObservation> packets_;
  std::uint64_t packets_seen_ = 0;
  int tiny_records_this_packet_ = 0;
  bool reset_reported_this_packet_ = false;
  int get_count_ = 0;
  int setup_skipped_ = 0;
};

}  // namespace h2priv::core
