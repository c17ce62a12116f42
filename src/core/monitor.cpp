#include "h2priv/core/monitor.hpp"

#include <algorithm>

namespace h2priv::core {

std::int64_t count_gets(std::span<const analysis::RecordObservation> c2s_records,
                        const MonitorConfig& config) {
  const std::int64_t sized =
      std::count_if(c2s_records.begin(), c2s_records.end(),
                    [&](const analysis::RecordObservation& rec) {
                      return config.get_sized(rec);
                    });
  return std::max<std::int64_t>(0, sized - config.setup_records_to_skip);
}

TrafficMonitor::TrafficMonitor(net::Middlebox& middlebox, MonitorConfig config)
    : TrafficMonitor(config) {
  middlebox.add_tap(
      [this](net::Direction dir, const net::Packet& p, util::TimePoint now) {
        on_packet(dir, p, now);
      });
}

TrafficMonitor::TrafficMonitor(MonitorConfig config) : config_(config) {
  streams_[static_cast<std::size_t>(net::Direction::kClientToServer)].on_record =
      [this](const analysis::RecordObservation& rec) { on_record(rec); };
}

void TrafficMonitor::on_packet(net::Direction dir, const net::Packet& packet,
                               util::TimePoint now) {
  const tcp::SegmentView seg = tcp::peek(packet.segment);
  analysis::PacketObservation obs;
  obs.time = now;
  obs.dir = dir;
  obs.wire_size = packet.wire_size();
  obs.seq = seg.seq;
  obs.ack = seg.ack;
  obs.flags = seg.flags;
  obs.payload_len = seg.payload.size();
  observe(obs, seg.payload);
}

void TrafficMonitor::observe(const analysis::PacketObservation& obs,
                             util::BytesView payload) {
  ++packets_seen_;
  if (config_.retain_packets) packets_.push_back(obs);
  if (on_packet_observed) on_packet_observed(obs);
  tiny_records_this_packet_ = 0;
  reset_reported_this_packet_ = false;
  streams_[static_cast<std::size_t>(obs.dir)].on_packet(obs, payload, obs.time);
}

void TrafficMonitor::on_record(const analysis::RecordObservation& rec) {
  if (rec.type != tls::ContentType::kApplicationData) return;
  const std::size_t plaintext = rec.plaintext_estimate();

  // Stream-reset flurry detection: many tiny records inside one segment.
  if (plaintext >= 10 && plaintext <= config_.reset_record_max_bytes) {
    ++tiny_records_this_packet_;
    if (!reset_reported_this_packet_ &&
        tiny_records_this_packet_ >= config_.reset_records_per_packet_threshold) {
      reset_reported_this_packet_ = true;
      if (on_reset_detected) on_reset_detected(rec.time);
    }
  }

  if (!config_.get_sized(rec)) return;
  if (setup_skipped_ < config_.setup_records_to_skip) {
    ++setup_skipped_;
    return;
  }
  ++get_count_;
  if (on_get_request) on_get_request(get_count_, rec.time);
}

}  // namespace h2priv::core
