#include "h2priv/h2/frame.hpp"

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "h2priv/util/hex.hpp"

namespace h2priv::h2 {
namespace {

// The frames one decode() call completes, in order.
std::vector<Frame> decode_all(FrameDecoder& dec, util::BytesView wire) {
  std::vector<Frame> frames;
  dec.decode(wire, [&](Frame&& f) { frames.push_back(std::move(f)); });
  return frames;
}

template <class T>
T round_trip(const T& frame) {
  FrameDecoder dec;
  const std::vector<Frame> out = decode_all(dec, encode_frame(frame));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<T>(out.at(0)));
  return std::get<T>(out.at(0));
}

TEST(H2Frame, DataRoundTrip) {
  DataFrame f;
  f.stream_id = 5;
  f.data = util::patterned_bytes(1'000, 1);
  f.end_stream = true;
  const DataFrame d = round_trip(f);
  EXPECT_EQ(d.stream_id, 5u);
  EXPECT_EQ(d.data, f.data);
  EXPECT_TRUE(d.end_stream);
}

TEST(H2Frame, DataWithPadding) {
  DataFrame f;
  f.stream_id = 3;
  f.data = util::patterned_bytes(100, 2);
  f.pad_length = 37;
  const util::Bytes wire = encode_frame(f);
  EXPECT_EQ(wire.size(), kFrameHeaderBytes + 1 + 100 + 37);
  const DataFrame d = round_trip(f);
  EXPECT_EQ(d.data, f.data);
  EXPECT_EQ(d.pad_length, 37);
}

TEST(H2Frame, EmptyDataEndStream) {
  DataFrame f;
  f.stream_id = 9;
  f.end_stream = true;
  const DataFrame d = round_trip(f);
  EXPECT_TRUE(d.data.empty());
  EXPECT_TRUE(d.end_stream);
}

TEST(H2Frame, HeadersRoundTrip) {
  HeadersFrame f;
  f.stream_id = 1;
  f.header_block = util::patterned_bytes(80, 3);
  f.end_stream = true;
  f.end_headers = true;
  const HeadersFrame d = round_trip(f);
  EXPECT_EQ(d.header_block, f.header_block);
  EXPECT_TRUE(d.end_stream);
  EXPECT_TRUE(d.end_headers);
  EXPECT_FALSE(d.has_priority);
}

TEST(H2Frame, HeadersWithPriority) {
  HeadersFrame f;
  f.stream_id = 7;
  f.header_block = util::patterned_bytes(10, 4);
  f.has_priority = true;
  f.stream_dependency = 3;
  f.exclusive = true;
  f.weight = 200;
  const HeadersFrame d = round_trip(f);
  EXPECT_TRUE(d.has_priority);
  EXPECT_EQ(d.stream_dependency, 3u);
  EXPECT_TRUE(d.exclusive);
  EXPECT_EQ(d.weight, 200);
}

TEST(H2Frame, PriorityRoundTrip) {
  PriorityFrame f{9, 5, false, 32};
  const PriorityFrame d = round_trip(f);
  EXPECT_EQ(d.stream_id, 9u);
  EXPECT_EQ(d.stream_dependency, 5u);
  EXPECT_EQ(d.weight, 32);
}

TEST(H2Frame, RstStreamRoundTrip) {
  RstStreamFrame f{11, ErrorCode::kCancel};
  const RstStreamFrame d = round_trip(f);
  EXPECT_EQ(d.stream_id, 11u);
  EXPECT_EQ(d.error, ErrorCode::kCancel);
}

TEST(H2Frame, SettingsRoundTrip) {
  SettingsFrame f;
  f.settings = {{1, 8'192}, {4, 1'048'576}, {5, 32'768}};
  const SettingsFrame d = round_trip(f);
  ASSERT_EQ(d.settings.size(), 3u);
  EXPECT_EQ(d.settings[1].id, 4);
  EXPECT_EQ(d.settings[1].value, 1'048'576u);
  EXPECT_FALSE(d.ack);
}

TEST(H2Frame, SettingsAck) {
  SettingsFrame f;
  f.ack = true;
  const SettingsFrame d = round_trip(f);
  EXPECT_TRUE(d.ack);
  EXPECT_TRUE(d.settings.empty());
}

TEST(H2Frame, PushPromiseRoundTrip) {
  PushPromiseFrame f;
  f.stream_id = 1;
  f.promised_stream_id = 2;
  f.header_block = util::patterned_bytes(44, 5);
  const PushPromiseFrame d = round_trip(f);
  EXPECT_EQ(d.promised_stream_id, 2u);
  EXPECT_EQ(d.header_block, f.header_block);
}

TEST(H2Frame, PingRoundTrip) {
  PingFrame f;
  f.opaque = {1, 2, 3, 4, 5, 6, 7, 8};
  const PingFrame d = round_trip(f);
  EXPECT_EQ(d.opaque, f.opaque);
  EXPECT_FALSE(d.ack);
}

TEST(H2Frame, GoAwayRoundTrip) {
  GoAwayFrame f;
  f.last_stream_id = 41;
  f.error = ErrorCode::kEnhanceYourCalm;
  f.debug_data = util::to_bytes("calm down");
  const GoAwayFrame d = round_trip(f);
  EXPECT_EQ(d.last_stream_id, 41u);
  EXPECT_EQ(d.error, ErrorCode::kEnhanceYourCalm);
  EXPECT_EQ(d.debug_data, f.debug_data);
}

TEST(H2Frame, WindowUpdateRoundTrip) {
  const WindowUpdateFrame d = round_trip(WindowUpdateFrame{0, 1'000'000});
  EXPECT_EQ(d.stream_id, 0u);
  EXPECT_EQ(d.increment, 1'000'000u);
}

TEST(H2Frame, ContinuationRoundTrip) {
  ContinuationFrame f;
  f.stream_id = 13;
  f.header_block = util::patterned_bytes(20, 6);
  f.end_headers = true;
  const ContinuationFrame d = round_trip(f);
  EXPECT_EQ(d.header_block, f.header_block);
}

TEST(H2Frame, WireFormatMatchesRfcLayout) {
  // DATA, stream 1, END_STREAM, 3 payload bytes.
  DataFrame f;
  f.stream_id = 1;
  f.end_stream = true;
  f.data = {0xaa, 0xbb, 0xcc};
  EXPECT_EQ(util::to_hex(encode_frame(f)), "000003000100000001aabbcc");
}

TEST(H2FrameDecoder, HandlesArbitraryChunking) {
  DataFrame f;
  f.stream_id = 1;
  f.data = util::patterned_bytes(300, 7);
  const util::Bytes wire = encode_frame(f);
  FrameDecoder dec;
  // Feed one byte at a time.
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    EXPECT_TRUE(decode_all(dec, util::BytesView(wire.data() + i, 1)).empty());
  }
  const auto out = decode_all(dec, util::BytesView(wire.data() + wire.size() - 1, 1));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<DataFrame>(out[0]).data, f.data);
}

TEST(H2FrameDecoder, MultipleFramesInOneFeed) {
  util::Bytes wire = encode_frame(PingFrame{});
  const util::Bytes second = encode_frame(WindowUpdateFrame{0, 5});
  wire.insert(wire.end(), second.begin(), second.end());
  FrameDecoder dec;
  const auto out = decode_all(dec, wire);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<PingFrame>(out[0]));
  EXPECT_TRUE(std::holds_alternative<WindowUpdateFrame>(out[1]));
}

TEST(H2FrameDecoder, RejectsUnknownFrameType) {
  util::ByteWriter w;
  w.u24(0);
  w.u8(0x77);
  w.u8(0);
  w.u32(0);
  FrameDecoder dec;
  EXPECT_THROW((void)decode_all(dec, w.view()), FrameError);
}

TEST(H2FrameDecoder, RejectsOversizedFrame) {
  util::ByteWriter w;
  w.u24(kDefaultMaxFrameSize + 1);
  w.u8(0);
  w.u8(0);
  w.u32(1);
  FrameDecoder dec;
  EXPECT_THROW((void)decode_all(dec, w.view()), FrameError);
}

TEST(H2FrameDecoder, RejectsMalformedFixedSizeFrames) {
  // RST_STREAM must be exactly 4 bytes.
  util::ByteWriter w;
  w.u24(5);
  w.u8(0x3);
  w.u8(0);
  w.u32(1);
  w.fill(5, 0);
  FrameDecoder dec;
  EXPECT_THROW((void)decode_all(dec, w.view()), FrameError);
}

TEST(H2FrameDecoder, RejectsSettingsOnStream) {
  util::ByteWriter w;
  w.u24(0);
  w.u8(0x4);
  w.u8(0);
  w.u32(3);  // non-zero stream id
  FrameDecoder dec;
  EXPECT_THROW((void)decode_all(dec, w.view()), FrameError);
}

TEST(H2FrameDecoder, RejectsZeroWindowIncrement) {
  util::ByteWriter w;
  w.u24(4);
  w.u8(0x8);
  w.u8(0);
  w.u32(1);
  w.u32(0);
  FrameDecoder dec;
  EXPECT_THROW((void)decode_all(dec, w.view()), FrameError);
}

TEST(H2Frame, TypeAndStreamAccessors) {
  EXPECT_EQ(frame_type(Frame{DataFrame{}}), FrameType::kData);
  EXPECT_EQ(frame_type(Frame{SettingsFrame{}}), FrameType::kSettings);
  DataFrame df;
  df.stream_id = 7;
  EXPECT_EQ(frame_stream_id(Frame{df}), 7u);
  EXPECT_EQ(frame_stream_id(Frame{PingFrame{}}), 0u);
}


// decode() parses complete frames straight from the fed view and queues only
// a trailing partial frame. Fed one byte at a time, in odd-sized pieces and
// in one piece, the decoder must hand on the same frames (compared by their
// re-encoding) and raise the same error after the same frames.
struct Decoded {
  std::vector<util::Bytes> frames;
  std::optional<std::string> error;
};

Decoded decode_in_pieces(util::BytesView wire, std::size_t piece) {
  FrameDecoder dec;
  Decoded out;
  try {
    for (std::size_t pos = 0; pos < wire.size(); pos += piece) {
      dec.decode(wire.subspan(pos, std::min(piece, wire.size() - pos)),
                 [&](Frame&& f) { out.frames.push_back(encode_frame(f)); });
    }
  } catch (const FrameError& e) {
    out.error = e.what();
  }
  return out;
}

util::Bytes mixed_frame_stream() {
  std::vector<Frame> frames;
  DataFrame padded;
  padded.stream_id = 1;
  padded.data = util::patterned_bytes(1'000, 3);
  padded.pad_length = 17;
  frames.emplace_back(padded);
  HeadersFrame h;
  h.stream_id = 3;
  h.header_block = util::patterned_bytes(40, 4);
  h.end_headers = false;
  h.has_priority = true;
  h.stream_dependency = 1;
  h.weight = 200;
  frames.emplace_back(h);
  ContinuationFrame c;
  c.stream_id = 3;
  c.header_block = util::patterned_bytes(25, 5);
  frames.emplace_back(c);
  frames.emplace_back(SettingsFrame{false, {{0x4, 65'535}, {0x5, 16'384}}});
  frames.emplace_back(PingFrame{true, {1, 2, 3, 4, 5, 6, 7, 8}});
  frames.emplace_back(WindowUpdateFrame{0, 4'096});
  DataFrame big;
  big.stream_id = 5;
  big.data = util::patterned_bytes(kDefaultMaxFrameSize, 6);
  big.end_stream = true;
  frames.emplace_back(big);
  frames.emplace_back(DataFrame{7, {}, true, 0});
  frames.emplace_back(RstStreamFrame{7, ErrorCode::kCancel});
  frames.emplace_back(GoAwayFrame{7, ErrorCode::kNoError, util::to_bytes("bye")});
  util::Bytes wire;
  for (const Frame& f : frames) {
    const util::Bytes one = encode_frame(f);
    wire.insert(wire.end(), one.begin(), one.end());
  }
  return wire;
}

void expect_same_decoding(const util::Bytes& wire) {
  const Decoded whole = decode_in_pieces(wire, wire.size());
  for (const std::size_t piece : {std::size_t{1}, std::size_t{7}, std::size_t{1'000}}) {
    const Decoded split = decode_in_pieces(wire, piece);
    EXPECT_EQ(split.frames, whole.frames) << piece;
    EXPECT_EQ(split.error, whole.error) << piece;
  }
}

TEST(H2FrameDecoderSplit, EveryByteSplitDecodesSameFramesAsOneShot) {
  const util::Bytes wire = mixed_frame_stream();
  expect_same_decoding(wire);
  const Decoded whole = decode_in_pieces(wire, wire.size());
  EXPECT_FALSE(whole.error.has_value());
  ASSERT_EQ(whole.frames.size(), 10u);
  util::Bytes reencoded;
  for (const util::Bytes& f : whole.frames) {
    reencoded.insert(reencoded.end(), f.begin(), f.end());
  }
  EXPECT_EQ(reencoded, wire);
}

TEST(H2FrameDecoderSplit, MalformedFramesFailAfterTheSameFrames) {
  const util::Bytes good = mixed_frame_stream();
  // An unknown type, a frame over the max frame size, a RST_STREAM of length 5.
  const std::vector<util::Bytes> bad_tails = {
      {0x00, 0x00, 0x00, 0x77, 0x00, 0x00, 0x00, 0x00, 0x00},
      {0x00, 0x40, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01},
      {0x00, 0x00, 0x05, 0x03, 0x00, 0x00, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0},
  };
  for (const util::Bytes& tail : bad_tails) {
    util::Bytes wire = good;
    wire.insert(wire.end(), tail.begin(), tail.end());
    expect_same_decoding(wire);
    const Decoded whole = decode_in_pieces(wire, wire.size());
    EXPECT_TRUE(whole.error.has_value());
    EXPECT_EQ(whole.frames.size(), 10u);
  }
}

}  // namespace
}  // namespace h2priv::h2
