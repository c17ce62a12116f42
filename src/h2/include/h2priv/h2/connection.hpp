// HTTP/2 connection (RFC 7540): preface, SETTINGS exchange, HPACK-coded
// HEADERS, DATA with connection- and stream-level flow control, RST_STREAM,
// PING, GOAWAY, WINDOW_UPDATE and server push.
//
// The connection is transport-agnostic: it emits each frame through a
// ByteSink and is fed received bytes via on_bytes(). A frame goes to the
// sink in pieces (util::Pieces): a DATA frame as its header bytes, the
// caller's payload view and its pad-zero count, so body bytes reach the
// TLS sealer without a copy; other frames as encoded header bytes alone.
// The sink returns the byte range the frame occupies in the underlying TCP
// stream, which the server uses for ground-truth annotation of which object
// each DATA frame carried (the simulator-side oracle the adversary never
// sees).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "h2priv/h2/frame.hpp"
#include "h2priv/h2/settings.hpp"
#include "h2priv/h2/stream.hpp"
#include "h2priv/hpack/codec.hpp"

namespace h2priv::h2 {

enum class Role : std::uint8_t { kClient, kServer };

/// Byte range a write occupies in the transport's stream (half-open).
struct WireSpan {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }
  [[nodiscard]] bool empty() const noexcept { return end == begin; }
};

struct ConnectionConfig {
  Settings local_settings{};
  /// Extra connection-level receive window granted immediately after the
  /// preface (browsers grant several MB; 0 keeps the RFC default 64 KiB).
  std::uint32_t connection_window_extra = 0;
};

class Connection {
 public:
  using ByteSink = std::function<WireSpan(const util::Pieces&)>;

  Connection(Role role, ConnectionConfig config, ByteSink out);

  /// Sends the preface (client), our SETTINGS, and any initial window grant.
  void start();

  /// Feeds transport bytes (decrypted TLS application data).
  void on_bytes(util::BytesView bytes);

  // --- client API ----------------------------------------------------------
  /// Opens a new stream with a GET-style header block; returns the stream id.
  std::uint32_t send_request(const hpack::HeaderList& headers,
                             std::optional<PriorityFrame> priority = std::nullopt);

  // --- server API ----------------------------------------------------------
  void send_response_headers(std::uint32_t stream_id, const hpack::HeaderList& headers,
                             bool end_stream = false);
  /// Transmits body bytes as DATA frames, straight from `data`, while flow
  /// control allows; only the residue it holds back is copied into the
  /// stream's pending queue, to drain on WINDOW_UPDATEs (with bytes already
  /// queued, all of `data` queues behind them). end_stream marks the final
  /// write for this stream.
  void send_data(std::uint32_t stream_id, util::BytesView data, bool end_stream);
  /// Reserves a promised stream (server push); returns the promised id.
  std::uint32_t push_promise(std::uint32_t parent_stream_id,
                             const hpack::HeaderList& request_headers);

  // --- both sides ----------------------------------------------------------
  void rst_stream(std::uint32_t stream_id, ErrorCode error);
  void ping();
  void goaway(ErrorCode error);

  [[nodiscard]] bool stream_exists(std::uint32_t id) const {
    return streams_.contains(id);
  }
  [[nodiscard]] const Stream& stream(std::uint32_t id) const;
  [[nodiscard]] std::size_t open_stream_count() const noexcept;
  /// Streams with body bytes still queued behind flow control.
  [[nodiscard]] std::size_t blocked_stream_count() const noexcept;
  [[nodiscard]] std::int64_t connection_send_window() const noexcept {
    return conn_send_window_;
  }
  [[nodiscard]] const Settings& peer_settings() const noexcept { return peer_settings_; }
  [[nodiscard]] const Settings& local_settings() const noexcept {
    return config_.local_settings;
  }
  [[nodiscard]] bool peer_settings_received() const noexcept {
    return peer_settings_received_;
  }

  struct H2Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t data_frames_sent = 0;
    std::uint64_t data_bytes_sent = 0;
    std::uint64_t data_bytes_received = 0;
    std::uint64_t rst_streams_sent = 0;
    std::uint64_t rst_streams_received = 0;
    std::uint64_t pushes_sent = 0;
  };
  [[nodiscard]] const H2Stats& stats() const noexcept { return stats_; }

  // --- callbacks ------------------------------------------------------------
  /// Server: a request header block arrived (end_stream: no body follows).
  std::function<void(std::uint32_t, const hpack::HeaderList&, bool)> on_request;
  /// Client: response headers arrived.
  std::function<void(std::uint32_t, const hpack::HeaderList&)> on_response_headers;
  /// Body bytes arrived (end = END_STREAM seen).
  std::function<void(std::uint32_t, util::BytesView, bool end)> on_data;
  std::function<void(std::uint32_t, ErrorCode)> on_rst_stream;
  std::function<void(ErrorCode)> on_goaway;
  /// Client: server push promised a resource on `promised` for `parent`.
  std::function<void(std::uint32_t parent, std::uint32_t promised,
                     const hpack::HeaderList&)>
      on_push_promise;
  /// Every frame actually written, with the transport range it landed in.
  std::function<void(std::uint32_t stream_id, FrameType, WireSpan)> on_frame_sent;
  /// A stream's queued bytes became fully flushed (used by the scheduler).
  std::function<void(std::uint32_t stream_id)> on_stream_drained;
  /// Defense hook (RFC 7540 §6.1): called once per DATA frame with the body
  /// length about to be written; returns the pad length (0 = no PADDED
  /// flag). Pad bytes consume flow-control window like body bytes, so the
  /// provider's answer is clamped to the window headroom. Null = unpadded
  /// frames, byte-identical to the pre-defense wire.
  std::function<std::uint8_t(std::size_t payload_len)> data_pad_provider;

  /// Client-advertised stream priority weights (PRIORITY frames / HEADERS
  /// priority fields); the server's weighted scheduler reads these.
  [[nodiscard]] std::uint8_t stream_weight(std::uint32_t stream_id) const;

 private:
  WireSpan write_frame(const Frame& f);
  void send_header_block(std::uint32_t stream_id, util::Bytes block, bool end_stream,
                         std::optional<PriorityFrame> priority);
  void handle_frame(Frame&& f);
  void dispatch_headers(std::uint32_t stream_id, util::Bytes block, bool end_stream);
  Stream& require_stream(std::uint32_t id);
  Stream& ensure_remote_stream(std::uint32_t id);
  void flush_stream_pending(Stream& s);
  /// Writes DATA frames from the front of `body` (all of the stream's
  /// unsent bytes) while both windows allow; returns the bytes written.
  std::size_t write_body(Stream& s, util::BytesView body);
  /// After a flush: the END_STREAM-only frame a drained stream still owes,
  /// then on_stream_drained if the stream's bytes drained now.
  void finish_flush(Stream& s, bool drained_now);
  WireSpan write_data(std::uint32_t stream_id, util::BytesView payload, bool end_stream,
                      std::uint8_t pad_length);
  void drain_blocked_streams();
  void grant_receive_credit(Stream* s, std::size_t consumed);

  Role role_;
  ConnectionConfig config_;
  ByteSink out_;
  util::ByteWriter frame_scratch_;  // control frames, reused across write_frame calls
  FrameDecoder decoder_;
  hpack::Encoder hpack_encoder_;
  hpack::Decoder hpack_decoder_;
  Settings peer_settings_{};
  bool peer_settings_received_ = false;
  bool started_ = false;
  bool goaway_sent_ = false;
  bool goaway_received_ = false;

  std::map<std::uint32_t, Stream> streams_;
  std::uint32_t next_stream_id_;          // odd for client, even for push
  std::uint32_t next_promised_id_ = 2;
  std::uint32_t highest_remote_stream_ = 0;
  std::int64_t conn_send_window_ = 65'535;
  std::int64_t conn_recv_consumed_ = 0;
  std::int64_t conn_recv_window_ = 65'535;
  std::size_t preface_remaining_;  // server: preface bytes still expected
  std::uint32_t rr_cursor_ = 0;    // round-robin position for blocked drains
  // CONTINUATION reassembly state (one header block may span frames).
  std::uint32_t continuation_stream_ = 0;
  util::Bytes continuation_block_;
  bool continuation_end_stream_ = false;
  std::map<std::uint32_t, std::uint8_t> stream_weights_;
  H2Stats stats_;
};

}  // namespace h2priv::h2
