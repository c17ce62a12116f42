#include "h2priv/analysis/monitor_stream.hpp"

#include <algorithm>

namespace h2priv::analysis {

void MonitorStream::on_packet(const PacketObservation& pkt, util::BytesView payload,
                              util::TimePoint now) {
  if (payload.empty()) return;
  reassembly_.offer(pkt.seq, payload, [&](util::BytesView bytes) { scan(bytes, now); });
}

void MonitorStream::scan(util::BytesView bytes, util::TimePoint now) {
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    if (header_have_ < tls::kHeaderBytes) {
      const std::size_t take =
          std::min(tls::kHeaderBytes - header_have_, bytes.size() - pos);
      std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(pos), take,
                  header_.begin() + static_cast<std::ptrdiff_t>(header_have_));
      header_have_ += take;
      pos += take;
      if (header_have_ < tls::kHeaderBytes) return;
      (void)tls::parse_header({header_.data(), header_.size()}, current_);
      body_left_ = current_.ciphertext_len;
    }
    const std::size_t take = std::min(body_left_, bytes.size() - pos);
    body_left_ -= take;
    pos += take;
    if (body_left_ > 0) return;

    RecordObservation rec;
    rec.time = now;
    rec.dir = dir_;
    rec.type = current_.type;
    rec.ciphertext_len = current_.ciphertext_len;
    rec.stream_offset = record_offset_;
    records_.push_back(rec);
    if (on_record) on_record(rec);
    record_offset_ += tls::kHeaderBytes + current_.ciphertext_len;
    header_have_ = 0;
  }
}

}  // namespace h2priv::analysis
