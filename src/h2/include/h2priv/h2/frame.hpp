// HTTP/2 frame layer (RFC 7540 §4, §6): the 9-byte frame header, typed
// frame structs, and an incremental decoder that reassembles frames from an
// arbitrary byte-stream chunking.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "h2priv/util/bytes.hpp"

namespace h2priv::h2 {

inline constexpr std::size_t kFrameHeaderBytes = 9;
inline constexpr std::uint32_t kDefaultMaxFrameSize = 16'384;
inline constexpr std::uint32_t kMaxStreamId = 0x7fffffff;

/// The client connection preface (RFC 7540 §3.5).
inline constexpr std::string_view kConnectionPreface = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

enum class FrameType : std::uint8_t {
  kData = 0x0,
  kHeaders = 0x1,
  kPriority = 0x2,
  kRstStream = 0x3,
  kSettings = 0x4,
  kPushPromise = 0x5,
  kPing = 0x6,
  kGoAway = 0x7,
  kWindowUpdate = 0x8,
  kContinuation = 0x9,
};

[[nodiscard]] const char* to_string(FrameType t) noexcept;

// Frame flags (per-type meaning, RFC 7540 §6).
inline constexpr std::uint8_t kFlagEndStream = 0x01;   // DATA, HEADERS
inline constexpr std::uint8_t kFlagAck = 0x01;         // SETTINGS, PING
inline constexpr std::uint8_t kFlagEndHeaders = 0x04;  // HEADERS, CONTINUATION
inline constexpr std::uint8_t kFlagPadded = 0x08;      // DATA, HEADERS
inline constexpr std::uint8_t kFlagPriority = 0x20;    // HEADERS

enum class ErrorCode : std::uint32_t {
  kNoError = 0x0,
  kProtocolError = 0x1,
  kInternalError = 0x2,
  kFlowControlError = 0x3,
  kSettingsTimeout = 0x4,
  kStreamClosed = 0x5,
  kFrameSizeError = 0x6,
  kRefusedStream = 0x7,
  kCancel = 0x8,
  kCompressionError = 0x9,
  kConnectError = 0xa,
  kEnhanceYourCalm = 0xb,
  kInadequateSecurity = 0xc,
  kHttp11Required = 0xd,
};

[[nodiscard]] const char* to_string(ErrorCode e) noexcept;

class FrameError : public std::runtime_error {
 public:
  explicit FrameError(const std::string& what) : std::runtime_error(what) {}
};

struct FrameHeader {
  std::uint32_t length = 0;  // 24-bit payload length
  FrameType type = FrameType::kData;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;  // 31-bit
};

struct DataFrame {
  std::uint32_t stream_id = 0;
  /// Borrowed payload. A decoded frame's view points into the bytes handed
  /// to FrameDecoder::decode and is valid only inside the on_frame call; a
  /// frame built for encoding points at a buffer its caller keeps alive.
  util::BytesView data;
  bool end_stream = false;
  std::uint8_t pad_length = 0;  ///< padding bytes appended on the wire
};

struct HeadersFrame {
  std::uint32_t stream_id = 0;
  util::Bytes header_block;  // HPACK-encoded fragment
  bool end_stream = false;
  bool end_headers = true;
  // Optional priority (kFlagPriority).
  bool has_priority = false;
  std::uint32_t stream_dependency = 0;
  bool exclusive = false;
  std::uint8_t weight = 16;  // wire value + 1
};

struct PriorityFrame {
  std::uint32_t stream_id = 0;
  std::uint32_t stream_dependency = 0;
  bool exclusive = false;
  std::uint8_t weight = 16;
};

struct RstStreamFrame {
  std::uint32_t stream_id = 0;
  ErrorCode error = ErrorCode::kNoError;
};

struct Setting {
  std::uint16_t id = 0;
  std::uint32_t value = 0;
};

struct SettingsFrame {
  bool ack = false;
  std::vector<Setting> settings;
};

struct PushPromiseFrame {
  std::uint32_t stream_id = 0;
  std::uint32_t promised_stream_id = 0;
  util::Bytes header_block;
  bool end_headers = true;
};

struct PingFrame {
  bool ack = false;
  std::array<std::uint8_t, 8> opaque{};
};

struct GoAwayFrame {
  std::uint32_t last_stream_id = 0;
  ErrorCode error = ErrorCode::kNoError;
  util::Bytes debug_data;
};

struct WindowUpdateFrame {
  std::uint32_t stream_id = 0;  // 0 = connection window
  std::uint32_t increment = 0;
};

struct ContinuationFrame {
  std::uint32_t stream_id = 0;
  util::Bytes header_block;
  bool end_headers = true;
};

using Frame = std::variant<DataFrame, HeadersFrame, PriorityFrame, RstStreamFrame,
                           SettingsFrame, PushPromiseFrame, PingFrame, GoAwayFrame,
                           WindowUpdateFrame, ContinuationFrame>;

[[nodiscard]] FrameType frame_type(const Frame& f) noexcept;
[[nodiscard]] std::uint32_t frame_stream_id(const Frame& f) noexcept;

/// Encodes a frame (header + payload) into wire bytes.
[[nodiscard]] util::Bytes encode_frame(const Frame& f);

/// Encodes into a caller-owned writer (reserves the exact frame size).
/// Lets h2::Connection reuse one scratch buffer for every frame it writes.
void encode_frame_into(util::ByteWriter& w, const Frame& f);

/// The bytes of a DATA frame ahead of its payload: the 9-byte frame header,
/// then the pad-length byte when the frame is padded. The payload and
/// `pad_length` zero bytes follow on the wire.
struct DataHead {
  std::array<std::uint8_t, kFrameHeaderBytes + 1> bytes{};
  std::size_t size = 0;
  [[nodiscard]] util::BytesView view() const noexcept { return {bytes.data(), size}; }
};
[[nodiscard]] DataHead data_frame_head(std::uint32_t stream_id, std::size_t payload_len,
                                       bool end_stream, std::uint8_t pad_length);

/// Incremental decoder over an arbitrary byte-stream chunking.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_frame_size = kDefaultMaxFrameSize) noexcept
      : max_frame_size_(max_frame_size) {}

  /// Decodes every frame that `bytes` completes and hands each to
  /// on_frame(Frame&&), in order. With nothing queued, complete frames parse
  /// straight from `bytes`; only a trailing partial frame is copied, and the
  /// next call appends just the bytes it still lacks. Throws FrameError on a
  /// malformed frame, after handing on the frames before it.
  /// A DataFrame's payload view is valid only during its on_frame call.
  template <class OnFrame>
  void decode(util::BytesView bytes, OnFrame&& on_frame) {
    if (!buf_.empty()) {
      if (!top_up(bytes)) return;
      // Exactly one frame is queued now. Take it out of buf_ first, so a
      // throwing on_frame leaves the decoder empty, and hand buf_'s storage
      // back once the frame's views are done with.
      util::Bytes queued_frame;
      queued_frame.swap(buf_);
      util::BytesView queued = queued_frame;
      if (std::optional<Frame> frame = parse_front(queued)) on_frame(std::move(*frame));
      queued_frame.clear();
      buf_.swap(queued_frame);
    }
    while (std::optional<Frame> frame = parse_front(bytes)) on_frame(std::move(*frame));
    buf_.assign(bytes.begin(), bytes.end());
  }

  void set_max_frame_size(std::uint32_t v) noexcept { max_frame_size_ = v; }

 private:
  /// Parses a 9-byte frame header. Throws FrameError on an unknown type or
  /// a frame over the max frame size.
  [[nodiscard]] FrameHeader checked_header(util::BytesView header) const;
  /// Decodes the frame at the front of `bytes` and advances past it; nullopt
  /// (and `bytes` untouched) if the frame is incomplete.
  [[nodiscard]] std::optional<Frame> parse_front(util::BytesView& bytes) const;
  /// Moves from `bytes` into buf_ what buf_'s partial frame still lacks;
  /// true once buf_ holds that whole frame.
  [[nodiscard]] bool top_up(util::BytesView& bytes);

  std::uint32_t max_frame_size_;
  util::Bytes buf_;  // the trailing partial frame of the last decode() call
};

}  // namespace h2priv::h2
