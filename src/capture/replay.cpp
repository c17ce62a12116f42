#include "h2priv/capture/replay.hpp"

#include <algorithm>
#include <cmath>

#include "h2priv/core/experiment.hpp"
#include "h2priv/obs/metrics.hpp"
#include "h2priv/tls/record.hpp"

namespace h2priv::capture {

namespace {

/// The synthetic byte stream one direction carried, produced a packet at a
/// time: zeros, with a real TLS header at every recorded record offset and,
/// past the last recorded record, a phantom application-data header
/// declaring the maximum body, which keeps the scanner waiting exactly like
/// the live run's unfinished trailing record. Given a [start, start+len)
/// range of stream offsets, materialize() writes the bytes that range holds,
/// with O(1) memory beyond the record vector the caller already owns, and
/// tracks the stream's extent as the packets go by; finish() then checks the
/// records against that extent.
///
/// The phantom is planted in every packet that reaches it, before the
/// stream's extent is known. When the stored records tile the stream, as
/// every captured trace's do, the scanner meets the phantom at its first
/// byte; if the stream ends before its fifth, the scanner never completes
/// it, so planting it changes no record. When a packet would complete its
/// 0xffff body, the trailing record is too large for the phantom to stand
/// in for.
class ChunkSynthesizer {
 public:
  explicit ChunkSynthesizer(const std::vector<analysis::RecordObservation>& records)
      : records_(records) {
    std::uint64_t prev = 0;
    for (const analysis::RecordObservation& rec : records_) {
      const std::uint64_t off = rec.stream_offset;
      if (off < prev) {
        // The per-packet binary search needs offset order; TraceWriter
        // always emits it (records surface in stream order).
        throw TraceError("records not sorted by stream offset");
      }
      prev = off;
      last_end_ = std::max(last_end_, off + tls::kHeaderBytes + rec.ciphertext_len);
    }
  }

  /// Writes stream bytes [start, start+len) into `scratch` and returns a
  /// view of them. The view is valid until the next call. Throws TraceError
  /// if the range reaches the end of the phantom's body.
  [[nodiscard]] util::BytesView materialize(std::uint64_t start, std::size_t len,
                                            util::Bytes& scratch) {
    const std::uint64_t end = start + len;
    if (end > last_end_ && end - last_end_ >= tls::kHeaderBytes + 0xffff) {
      throw TraceError("unfinished trailing record too large to synthesize");
    }
    total_ = std::max(total_, end);
    scratch.assign(len, 0);
    // First record whose 5-byte header could reach into [start, end).
    auto it = std::lower_bound(
        records_.begin(), records_.end(), start,
        [](const analysis::RecordObservation& rec, std::uint64_t s) {
          return rec.stream_offset + tls::kHeaderBytes <= s;
        });
    for (; it != records_.end() && it->stream_offset < end; ++it) {
      plant_header(scratch, start, end, it->stream_offset,
                   static_cast<std::uint8_t>(it->type),
                   static_cast<std::uint16_t>(it->ciphertext_len));
    }
    if (last_end_ < end && last_end_ + tls::kHeaderBytes > start) {
      plant_header(scratch, start, end, last_end_,
                   static_cast<std::uint8_t>(tls::ContentType::kApplicationData),
                   0xffff);
    }
    return {scratch.data(), scratch.size()};
  }

  /// The extent checks, once every packet has been seen: each recorded
  /// record must lie within the stream the packets carried.
  void finish() const {
    for (const analysis::RecordObservation& rec : records_) {
      if (rec.stream_offset + tls::kHeaderBytes > total_) {
        throw TraceError("record header extends past the synthesized stream");
      }
    }
    if (last_end_ > total_) {
      // A record body the stream never carried in full.
      throw TraceError("unfinished trailing record too large to synthesize");
    }
  }

 private:
  /// Copies the overlap of one 5-byte header at `hdr_off` into the scratch
  /// range [start, end).
  static void plant_header(util::Bytes& scratch, std::uint64_t start,
                           std::uint64_t end, std::uint64_t hdr_off,
                           std::uint8_t type, std::uint16_t body_len) {
    const std::array<std::uint8_t, tls::kHeaderBytes> header = {
        type,
        static_cast<std::uint8_t>(tls::kVersionTls12 >> 8),
        static_cast<std::uint8_t>(tls::kVersionTls12 & 0xff),
        static_cast<std::uint8_t>(body_len >> 8),
        static_cast<std::uint8_t>(body_len & 0xff)};
    const std::uint64_t from = std::max(hdr_off, start);
    const std::uint64_t to = std::min(hdr_off + tls::kHeaderBytes, end);
    for (std::uint64_t at = from; at < to; ++at) {
      scratch[static_cast<std::size_t>(at - start)] =
          header[static_cast<std::size_t>(at - hdr_off)];
    }
  }

  const std::vector<analysis::RecordObservation>& records_;
  std::uint64_t last_end_ = 0;  ///< end of the furthest-reaching record
  std::uint64_t total_ = 0;     ///< stream extent of the packets seen so far
};

[[nodiscard]] bool same_records(const std::vector<analysis::RecordObservation>& a,
                                const std::vector<analysis::RecordObservation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].dir != b[i].dir || a[i].type != b[i].type ||
        a[i].ciphertext_len != b[i].ciphertext_len ||
        a[i].stream_offset != b[i].stream_offset) {
      return false;
    }
  }
  return true;
}

[[nodiscard]] ObjectVerdict score_object(const analysis::GroundTruth& truth,
                                         const core::ObjectPredictor& predictor,
                                         web::ObjectId id, const std::string& label,
                                         std::size_t true_size,
                                         util::TimePoint horizon) {
  // Mirrors core::run_once's score_object lambda, including the DoM
  // histogram sample, so replayed analysis metrics line up with live ones.
  ObjectVerdict v;
  v.label = label;
  v.true_size = true_size;
  const std::optional<double> dom = truth.object_dom(id);
  v.has_dom = dom.has_value();
  if (dom.has_value()) {
    v.primary_dom = *dom;
    obs::sample(obs::Hist::kH2ObjectDomMilli,
                static_cast<std::uint64_t>(std::llround(*dom * 1000.0)));
  }
  v.serialized_primary = dom.has_value() && *dom == 0.0;
  v.any_serialized_copy = truth.any_serialized_instance(id);
  v.identified = predictor.find(label, horizon).has_value();
  v.attack_success = v.any_serialized_copy && v.identified;
  return v;
}

/// The replay engine: feeds every packet `walk` yields through a fresh
/// monitor, in one pass, payloads synthesized per packet into one reusable
/// scratch buffer, then checks the recomputed records against the stored
/// ones and scores the result. `walk(fn)` calls fn once per packet in
/// capture order.
template <typename Walk>
[[nodiscard]] ReplayResult run_replay(
    const TraceMeta& meta, const analysis::GroundTruth& truth,
    const std::vector<analysis::RecordObservation>& c2s,
    const std::vector<analysis::RecordObservation>& s2c,
    const std::optional<TraceSummary>& stored_summary, const Walk& walk) {
  std::array<ChunkSynthesizer, 2> synth = {ChunkSynthesizer(c2s), ChunkSynthesizer(s2c)};
  core::MonitorConfig config;
  config.retain_packets = false;  // O(1) packet memory
  core::TrafficMonitor monitor(config);
  util::Bytes scratch;
  try {
    walk([&](const analysis::PacketObservation& p) {
      util::BytesView payload;
      if (p.payload_len > 0) {
        // Data byte at TCP seq s sits at stream offset s-1 (SYN occupies
        // seq 0).
        if (p.seq == 0) throw TraceError("data packet with seq 0 (pre-SYN payload?)");
        if (p.seq - 1 + p.payload_len < p.seq - 1) {
          throw TraceError("data packet's sequence range wraps");
        }
        payload = synth[static_cast<std::size_t>(p.dir)].materialize(
            p.seq - 1, p.payload_len, scratch);
      }
      monitor.observe(p, payload);
    });
  } catch (const tls::TlsError& e) {
    // Stored record offsets that leave a gap put zero bytes where the
    // scanner expects a header.
    throw TraceError(std::string("stored records do not tile the stream: ") + e.what());
  }
  for (const ChunkSynthesizer& s : synth) s.finish();

  ReplayResult result;
  result.records_match =
      same_records(monitor.records(net::Direction::kClientToServer), c2s) &&
      same_records(monitor.records(net::Direction::kServerToClient), s2c);
  const core::ObjectPredictor predictor(monitor, core::isidewith_catalog());
  result.summary = score_with_predictor(meta, truth, predictor, monitor.packets_seen(),
                                        monitor.get_count());
  result.summary_matches =
      stored_summary.has_value() && *stored_summary == result.summary;
  return result;
}

}  // namespace

std::int64_t count_gets(std::span<const analysis::RecordObservation> c2s_records,
                        const core::MonitorConfig& config) {
  std::int64_t gets = 0;
  int setup_skipped = 0;
  for (const analysis::RecordObservation& rec : c2s_records) {
    if (rec.type != tls::ContentType::kApplicationData) continue;
    const std::size_t plaintext = rec.plaintext_estimate();
    if (plaintext < config.min_get_record_bytes ||
        plaintext > config.max_get_record_bytes) {
      continue;
    }
    if (setup_skipped < config.setup_records_to_skip) {
      ++setup_skipped;
      continue;
    }
    ++gets;
  }
  return gets;
}

TraceSummary score_with_predictor(const TraceMeta& meta,
                                  const analysis::GroundTruth& truth,
                                  const core::ObjectPredictor& predictor,
                                  std::uint64_t monitor_packets,
                                  std::int64_t monitor_gets) {
  const web::IsideWithSite site =
      web::build_isidewith_site(meta.pad_sensitive_objects);
  const util::TimePoint horizon{meta.attack_horizon_ns};

  TraceSummary sum;
  sum.monitor_packets = monitor_packets;
  sum.monitor_gets = monitor_gets;
  sum.html = score_object(truth, predictor, site.results_html, core::html_label(),
                          site.site.object(site.results_html).size, horizon);

  for (int pos = 0; pos < web::kPartyCount; ++pos) {
    const int party = meta.party_order[static_cast<std::size_t>(pos)];
    const web::ObjectId id = site.emblems[static_cast<std::size_t>(party)];
    sum.emblems_by_position[static_cast<std::size_t>(pos)] = score_object(
        truth, predictor, id, core::party_label(party), site.site.object(id).size,
        horizon);
  }

  // Sequence recovery + the per-position success overwrite, exactly as
  // core::run_once does it after predict_sequence.
  std::vector<std::string> party_labels;
  party_labels.reserve(web::kPartyCount);
  for (int p = 0; p < web::kPartyCount; ++p) {
    party_labels.push_back(core::party_label(p));
  }
  for (const core::Identification& id :
       predictor.predict_sequence(party_labels, horizon)) {
    sum.predicted_sequence.push_back(id.label);
  }
  for (int pos = 0; pos < web::kPartyCount; ++pos) {
    const int party = meta.party_order[static_cast<std::size_t>(pos)];
    const bool position_ok =
        pos < static_cast<int>(sum.predicted_sequence.size()) &&
        sum.predicted_sequence[static_cast<std::size_t>(pos)] ==
            core::party_label(party);
    ObjectVerdict& v = sum.emblems_by_position[static_cast<std::size_t>(pos)];
    v.attack_success = v.any_serialized_copy && position_ok;
    sum.sequence_positions_correct += position_ok ? 1 : 0;
  }
  return sum;
}

TraceSummary score_stored(const TraceFile& trace) {
  const analysis::GroundTruth truth = trace.ground_truth();
  const std::vector<analysis::RecordObservation> s2c =
      trace.records(net::Direction::kServerToClient);
  const std::vector<analysis::RecordObservation> c2s =
      trace.records(net::Direction::kClientToServer);
  const core::ObjectPredictor predictor(s2c, core::isidewith_catalog());
  return score_with_predictor(trace.meta(), truth, predictor,
                              trace.packet_count(), count_gets(c2s));
}

std::vector<DemuxedConn> demux_fleet(const TraceFile& trace) {
  if (!trace.meta().fleet) throw TraceError("not a fleet trace");
  std::vector<FleetConn> conns = trace.fleet();
  const ConnIdColumns ids = trace.conn_ids();
  std::vector<DemuxedConn> out(conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    DemuxedConn& d = out[i];
    d.meta = trace.meta();
    d.meta.fleet = false;
    d.meta.seed = conns[i].client_seed;
    d.meta.party_order = conns[i].party_order;
    d.meta.attack_horizon_ns = conns[i].attack_horizon_ns;
    d.info = std::move(conns[i]);
  }

  analysis::PacketObservation p;
  std::size_t idx = 0;
  for (PacketCursor cursor = trace.packets(); cursor.next(p); ++idx) {
    DemuxedConn& d = out[ids.packets[idx]];  // ids validated < conns.size()
    p.time.ns -= d.info.start_offset_ns;
    d.packets.push_back(p);
  }
  for (const auto dir :
       {net::Direction::kClientToServer, net::Direction::kServerToClient}) {
    const bool c2s = dir == net::Direction::kClientToServer;
    const std::vector<std::uint32_t>& col = c2s ? ids.records_c2s : ids.records_s2c;
    std::vector<analysis::RecordObservation> recs = trace.records(dir);
    if (recs.size() != col.size()) {
      throw TraceError("record count disagrees with connection-id column");
    }
    for (std::size_t i = 0; i < recs.size(); ++i) {
      DemuxedConn& d = out[col[i]];
      recs[i].time.ns -= d.info.start_offset_ns;
      (c2s ? d.records_c2s : d.records_s2c).push_back(recs[i]);
    }
  }
  return out;
}

std::vector<ReplayResult> replay_fleet(const TraceFile& trace) {
  const std::vector<DemuxedConn> conns = demux_fleet(trace);
  std::vector<ReplayResult> out;
  out.reserve(conns.size());
  for (const DemuxedConn& conn : conns) {
    const auto walk = [&](const auto& fn) {
      for (const analysis::PacketObservation& p : conn.packets) fn(p);
    };
    out.push_back(run_replay(conn.meta, conn.info.truth, conn.records_c2s,
                             conn.records_s2c, conn.info.summary, walk));
  }
  return out;
}

ReplayResult replay(const TraceFile& trace) {
  const std::vector<analysis::RecordObservation> c2s =
      trace.records(net::Direction::kClientToServer);
  const std::vector<analysis::RecordObservation> s2c =
      trace.records(net::Direction::kServerToClient);
  const analysis::GroundTruth truth = trace.ground_truth();
  std::optional<TraceSummary> stored;
  if (trace.has_section(Section::kSummary)) stored = trace.summary();
  const auto walk = [&](const auto& fn) {
    analysis::PacketObservation p;
    for (PacketCursor cursor = trace.packets(); cursor.next(p);) fn(p);
  };
  return run_replay(trace.meta(), truth, c2s, s2c, stored, walk);
}

}  // namespace h2priv::capture
