#include "h2priv/tcp/segment.hpp"

#include <stdexcept>

#include "h2priv/util/narrow.hpp"

namespace h2priv::tcp {

void encode_segment_header(util::ByteWriter& w, const SegmentView& s,
                           std::size_t payload_len) {
  w.reserve(kHeaderBytes + payload_len);
  w.u16(s.src_port);
  w.u16(s.dst_port);
  w.u64(s.seq);
  w.u64(s.ack);
  w.u8(s.flags);
  w.u8(0);
  w.u32(s.window);
  w.u16(util::narrow<std::uint16_t>(payload_len));
}

void encode_segment(util::ByteWriter& w, const SegmentView& s) {
  encode_segment_header(w, s, s.payload.size());
  w.bytes(s.payload);
}

util::Bytes Segment::encode() const {
  util::ByteWriter w(kHeaderBytes + payload.size());
  encode_segment(w, SegmentView{.src_port = src_port,
                                .dst_port = dst_port,
                                .seq = seq,
                                .ack = ack,
                                .flags = flags,
                                .window = window,
                                .payload = payload});
  return w.take();
}

Segment Segment::decode(util::BytesView wire) {
  util::ByteReader r(wire);
  Segment s;
  s.src_port = r.u16();
  s.dst_port = r.u16();
  s.seq = r.u64();
  s.ack = r.u64();
  s.flags = r.u8();
  r.skip(1);
  s.window = r.u32();
  const std::uint16_t len = r.u16();
  if (r.remaining() != len) {
    throw std::invalid_argument("Segment::decode: payload length mismatch");
  }
  const auto body = r.bytes(len);
  s.payload.assign(body.begin(), body.end());
  return s;
}

SegmentView peek(util::BytesView wire) {
  util::ByteReader r(wire);
  SegmentView v;
  v.src_port = r.u16();
  v.dst_port = r.u16();
  v.seq = r.u64();
  v.ack = r.u64();
  v.flags = r.u8();
  r.skip(1);
  v.window = r.u32();
  const std::uint16_t len = r.u16();
  if (r.remaining() != len) {
    throw std::invalid_argument("tcp::peek: payload length mismatch");
  }
  v.payload = r.bytes(len);
  return v;
}

}  // namespace h2priv::tcp
