// Monitor-side stream reassembly and TLS record extraction from observed
// packets (the adversary's tshark view).
#include "h2priv/analysis/monitor_stream.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "h2priv/sim/rng.hpp"
#include "h2priv/tls/record.hpp"

namespace h2priv::analysis {
namespace {

constexpr std::uint64_t kSecret = 99;

PacketObservation packet_at(std::uint64_t seq, std::size_t payload_len,
                            util::TimePoint t = {}) {
  PacketObservation p;
  p.time = t;
  p.dir = net::Direction::kServerToClient;
  p.seq = seq;
  p.payload_len = payload_len;
  return p;
}

TEST(MonitorStream, ExtractsRecordsFromSinglePacket) {
  tls::SealContext seal(kSecret, 1);
  util::Bytes wire = seal.seal(tls::ContentType::kApplicationData,
                               util::patterned_bytes(100, 1));
  const util::Bytes second =
      seal.seal(tls::ContentType::kHandshake, util::patterned_bytes(40, 2));
  wire.insert(wire.end(), second.begin(), second.end());

  MonitorStream ms(net::Direction::kServerToClient);
  ms.on_packet(packet_at(1, wire.size()), wire, util::TimePoint{5});
  ASSERT_EQ(ms.records().size(), 2u);
  EXPECT_EQ(ms.records()[0].type, tls::ContentType::kApplicationData);
  EXPECT_EQ(ms.records()[0].ciphertext_len, 100 + tls::kAeadOverhead);
  EXPECT_EQ(ms.records()[0].plaintext_estimate(), 100u);
  EXPECT_EQ(ms.records()[1].type, tls::ContentType::kHandshake);
  EXPECT_EQ(ms.records()[0].stream_offset, 0u);
  EXPECT_EQ(ms.records()[1].stream_offset,
            100 + tls::kHeaderBytes + tls::kAeadOverhead);
}

TEST(MonitorStream, RecordSplitAcrossPackets) {
  tls::SealContext seal(kSecret, 1);
  const util::Bytes wire =
      seal.seal(tls::ContentType::kApplicationData, util::patterned_bytes(3'000, 3));
  MonitorStream ms(net::Direction::kServerToClient);
  const std::size_t half = wire.size() / 2;
  ms.on_packet(packet_at(1, half), util::BytesView(wire.data(), half),
               util::TimePoint{1});
  EXPECT_TRUE(ms.records().empty());
  ms.on_packet(packet_at(1 + half, wire.size() - half),
               util::BytesView(wire.data() + half,
                               wire.size() - half), util::TimePoint{2});
  ASSERT_EQ(ms.records().size(), 1u);
  EXPECT_EQ(ms.records()[0].time.ns, 2) << "record completes with the second packet";
}

TEST(MonitorStream, OutOfOrderPacketsReassemble) {
  tls::SealContext seal(kSecret, 1);
  const util::Bytes wire =
      seal.seal(tls::ContentType::kApplicationData, util::patterned_bytes(500, 4));
  MonitorStream ms(net::Direction::kServerToClient);
  const std::size_t half = wire.size() / 2;
  // Second half arrives first.
  ms.on_packet(packet_at(1 + half, wire.size() - half),
               util::BytesView(wire.data() + half,
                               wire.size() - half), util::TimePoint{1});
  EXPECT_TRUE(ms.records().empty());
  ms.on_packet(packet_at(1, half), util::BytesView(wire.data(), half),
               util::TimePoint{2});
  ASSERT_EQ(ms.records().size(), 1u);
}

TEST(MonitorStream, RetransmittedBytesAreDeduplicated) {
  tls::SealContext seal(kSecret, 1);
  const util::Bytes wire =
      seal.seal(tls::ContentType::kApplicationData, util::patterned_bytes(200, 5));
  MonitorStream ms(net::Direction::kServerToClient);
  ms.on_packet(packet_at(1, wire.size()), wire, util::TimePoint{1});
  ms.on_packet(packet_at(1, wire.size()), wire, util::TimePoint{2});  // retransmit
  EXPECT_EQ(ms.records().size(), 1u);
}

TEST(MonitorStream, CallbackFiresPerRecord) {
  tls::SealContext seal(kSecret, 1);
  util::Bytes wire;
  for (int i = 0; i < 3; ++i) {
    const util::Bytes rec = seal.seal(tls::ContentType::kApplicationData,
                                      util::patterned_bytes(
                                          50, static_cast<std::uint32_t>(i)));
    wire.insert(wire.end(), rec.begin(), rec.end());
  }
  MonitorStream ms(net::Direction::kServerToClient);
  int fired = 0;
  ms.on_record = [&](const RecordObservation&) { ++fired; };
  ms.on_packet(packet_at(1, wire.size()), wire, util::TimePoint{1});
  EXPECT_EQ(fired, 3);
}

TEST(MonitorStream, EmptyPayloadIgnored) {
  MonitorStream ms(net::Direction::kServerToClient);
  ms.on_packet(packet_at(1, 0), util::BytesView{}, util::TimePoint{1});
  EXPECT_TRUE(ms.records().empty());
}

TEST(MonitorStream, ManyRecordsAcrossManySegments) {
  tls::SealContext seal(kSecret, 1);
  util::Bytes stream;
  for (int i = 0; i < 40; ++i) {
    const util::Bytes rec = seal.seal(tls::ContentType::kApplicationData,
                                      util::patterned_bytes(
                                          997, static_cast<std::uint32_t>(i)));
    stream.insert(stream.end(), rec.begin(), rec.end());
  }
  MonitorStream ms(net::Direction::kServerToClient);
  // Deliver in MSS-sized packets.
  const std::size_t mss = 1'452;
  std::uint64_t seq = 1;
  for (std::size_t pos = 0; pos < stream.size(); pos += mss) {
    const std::size_t n = std::min(mss, stream.size() - pos);
    ms.on_packet(packet_at(seq, n), util::BytesView(stream.data() + pos, n),
                 util::TimePoint{static_cast<std::int64_t>(pos)});
    seq += n;
  }
  EXPECT_EQ(ms.records().size(), 40u);
  for (const auto& rec : ms.records()) {
    EXPECT_EQ(rec.plaintext_estimate(), 997u);
  }
}


// --- scanner equivalence -----------------------------------------------------
// The scanner keeps only a 5-byte header accumulator and a body countdown, so
// its output may depend on nothing but the in-order byte stream and on which
// packet completes each record. These tests deliver one stream many ways
// (headers split at every byte boundary, zero-length bodies, random
// segmentation, reordering and duplication) and check every packet against
// an oracle that tracks the delivered prefix directly.

struct SealedStream {
  util::Bytes bytes;
  std::vector<RecordObservation> records;  ///< time unset; offsets exact
};

/// A stream of sealed records with every fifth body empty (a bare header,
/// which the scanner must emit as soon as the header completes).
SealedStream sealed_stream(sim::Rng& rng, int count) {
  tls::SealContext seal(kSecret, 1);
  SealedStream out;
  for (int i = 0; i < count; ++i) {
    util::Bytes rec;
    if (i % 5 == 2) {
      rec = {static_cast<std::uint8_t>(tls::ContentType::kHandshake), 0x03, 0x03, 0, 0};
    } else {
      const auto n = static_cast<std::size_t>(rng.uniform_int(0, 2'000));
      rec = seal.seal(i % 3 == 0 ? tls::ContentType::kAlert
                                 : tls::ContentType::kApplicationData,
                      util::patterned_bytes(n, static_cast<std::uint32_t>(i)));
    }
    RecordObservation obs;
    obs.dir = net::Direction::kServerToClient;
    obs.type = static_cast<tls::ContentType>(rec[0]);
    obs.ciphertext_len = rec.size() - tls::kHeaderBytes;
    obs.stream_offset = out.bytes.size();
    out.records.push_back(obs);
    out.bytes.insert(out.bytes.end(), rec.begin(), rec.end());
  }
  return out;
}

struct Segment {
  std::size_t start = 0;
  std::size_t len = 0;
};

/// Cuts the stream so that record i's header is split after byte
/// (i % 4) + 1, adds random cuts, then reorders neighbours, repeats earlier
/// segments and coalesces retransmissions over two segments.
std::vector<Segment> delivery(const SealedStream& st, sim::Rng& rng) {
  std::vector<std::size_t> cuts = {0, st.bytes.size()};
  for (std::size_t i = 0; i < st.records.size(); ++i) {
    cuts.push_back(static_cast<std::size_t>(st.records[i].stream_offset) + i % 4 + 1);
  }
  for (std::size_t at = 0; at < st.bytes.size();) {
    at += static_cast<std::size_t>(rng.uniform_int(1, 1'400));
    cuts.push_back(std::min(at, st.bytes.size()));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<Segment> in_order;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    in_order.push_back({cuts[i], cuts[i + 1] - cuts[i]});
  }
  std::vector<Segment> out;
  for (std::size_t i = 0; i < in_order.size(); ++i) {
    if (i + 1 < in_order.size() && rng.chance(0.2)) {
      out.push_back(in_order[i + 1]);  // overtakes its predecessor
      out.push_back(in_order[i]);
      ++i;
    } else {
      out.push_back(in_order[i]);
    }
    if (!out.empty() && rng.chance(0.15)) {
      out.push_back(out[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1))]);
    }
    if (i >= 1 && rng.chance(0.1)) {
      const Segment& a = in_order[i - 1];
      out.push_back({a.start, a.len + in_order[i].len});
    }
  }
  return out;
}

/// Delivered-prefix oracle: which stream bytes have arrived, and how far the
/// contiguous prefix reaches.
class PrefixOracle {
 public:
  explicit PrefixOracle(std::size_t n) : seen_(n, false) {}
  std::size_t deliver(const Segment& seg) {
    std::fill_n(seen_.begin() + static_cast<std::ptrdiff_t>(seg.start), seg.len, true);
    while (prefix_ < seen_.size() && seen_[prefix_]) ++prefix_;
    return prefix_;
  }

 private:
  std::vector<bool> seen_;
  std::size_t prefix_ = 0;
};

[[nodiscard]] bool same_fields(const RecordObservation& a, const RecordObservation& b) {
  return a.time == b.time && a.dir == b.dir && a.type == b.type &&
         a.ciphertext_len == b.ciphertext_len && a.stream_offset == b.stream_offset;
}

TEST(MonitorStreamScanner, AnyDeliveryMatchesOneShotAtTheCompletingPacket) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    sim::Rng rng(seed);
    const SealedStream st = sealed_stream(rng, 24);
    MonitorStream one_shot(net::Direction::kServerToClient);
    one_shot.on_packet(packet_at(1, st.bytes.size()), st.bytes, util::TimePoint{0});
    ASSERT_EQ(one_shot.records().size(), st.records.size()) << seed;
    for (std::size_t i = 0; i < st.records.size(); ++i) {
      RecordObservation want = st.records[i];
      want.time = util::TimePoint{0};
      ASSERT_TRUE(same_fields(one_shot.records()[i], want)) << seed << " record " << i;
    }
    EXPECT_EQ(one_shot.stream_bytes(), st.bytes.size());

    MonitorStream ms(net::Direction::kServerToClient);
    PrefixOracle oracle(st.bytes.size());
    std::vector<RecordObservation> want;
    const std::vector<Segment> segments = delivery(st, rng);
    for (std::size_t k = 0; k < segments.size(); ++k) {
      const Segment& seg = segments[k];
      const util::TimePoint t{static_cast<std::int64_t>(k) + 1};
      ms.on_packet(packet_at(1 + seg.start, seg.len),
                   util::BytesView(st.bytes.data() + seg.start, seg.len), t);
      const std::size_t prefix = oracle.deliver(seg);
      while (want.size() < st.records.size()) {
        RecordObservation next = st.records[want.size()];
        if (next.stream_offset + tls::kHeaderBytes + next.ciphertext_len > prefix) break;
        next.time = t;  // stamped by the packet that delivers its last byte
        want.push_back(next);
      }
      ASSERT_EQ(ms.stream_bytes(), prefix) << seed << " packet " << k;
      ASSERT_EQ(ms.records().size(), want.size()) << seed << " packet " << k;
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(same_fields(ms.records()[i], want[i])) << seed << " record " << i;
    }
    EXPECT_EQ(want.size(), st.records.size()) << seed;
  }
}

TEST(MonitorStreamScanner, MalformedHeaderThrowsFromThePacketThatCompletesIt) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    sim::Rng rng(seed);
    SealedStream st = sealed_stream(rng, 12);
    const std::size_t bad = static_cast<std::size_t>(rng.uniform_int(0, 11));
    const auto at = static_cast<std::size_t>(st.records[bad].stream_offset);
    if (seed % 2 == 0) {
      st.bytes[at] = 0x00;  // not a content type
    } else {
      st.bytes[at + 2] = 0x01;  // TLS 1.0 on the wire
    }
    MonitorStream ms(net::Direction::kServerToClient);
    PrefixOracle oracle(st.bytes.size());
    bool thrown = false;
    for (const Segment& seg : delivery(st, rng)) {
      const std::size_t prefix = oracle.deliver(seg);
      const bool completes = prefix >= at + tls::kHeaderBytes;
      try {
        ms.on_packet(packet_at(1 + seg.start, seg.len),
                     util::BytesView(st.bytes.data() + seg.start, seg.len),
                     util::TimePoint{1});
        ASSERT_FALSE(completes) << seed << ": completing packet did not throw";
      } catch (const tls::TlsError&) {
        ASSERT_TRUE(completes) << seed << ": threw before the header completed";
        EXPECT_EQ(ms.records().size(), bad) << seed;
        EXPECT_EQ(ms.stream_bytes(), prefix) << seed;
        thrown = true;
        break;
      }
    }
    EXPECT_TRUE(thrown) << seed;
  }
}

}  // namespace
}  // namespace h2priv::analysis
