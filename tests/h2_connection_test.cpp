// Client/server h2::Connection pair wired back to back (no transport):
// protocol-level behaviour including flow control and push.
#include "h2priv/h2/connection.hpp"

#include <deque>
#include <string>

#include "h2priv/sim/rng.hpp"

#include <gtest/gtest.h>

namespace h2priv::h2 {
namespace {

// Wires two connections so each one's output bytes feed the peer, with an
// explicit pump so tests can control delivery timing.
struct ConnPair {
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;
  std::deque<util::Bytes> to_server;
  std::deque<util::Bytes> to_client;
  std::uint64_t client_offset = 0;
  std::uint64_t server_offset = 0;

  explicit ConnPair(ConnectionConfig client_cfg = {}, ConnectionConfig server_cfg = {}) {
    client = std::make_unique<Connection>(
        Role::kClient, client_cfg, [this](const util::Pieces& frame) {
          const util::Bytes b = frame.joined();
          to_server.emplace_back(b);
          const WireSpan span{client_offset, client_offset + b.size()};
          client_offset += b.size();
          return span;
        });
    server = std::make_unique<Connection>(
        Role::kServer, server_cfg, [this](const util::Pieces& frame) {
          const util::Bytes b = frame.joined();
          to_client.emplace_back(b);
          const WireSpan span{server_offset, server_offset + b.size()};
          server_offset += b.size();
          return span;
        });
  }

  void pump() {
    while (!to_server.empty() || !to_client.empty()) {
      if (!to_server.empty()) {
        const util::Bytes b = std::move(to_server.front());
        to_server.pop_front();
        server->on_bytes(b);
      }
      if (!to_client.empty()) {
        const util::Bytes b = std::move(to_client.front());
        to_client.pop_front();
        client->on_bytes(b);
      }
    }
  }

  void start() {
    client->start();
    server->start();
    pump();
  }
};

hpack::HeaderList get_request(const std::string& path) {
  return {{":method", "GET"}, {":scheme", "https"},
          {":authority", "example.com"}, {":path", path}};
}

TEST(H2Connection, SettingsExchangeOnStart) {
  ConnPair pair;
  pair.start();
  EXPECT_TRUE(pair.client->peer_settings_received());
  EXPECT_TRUE(pair.server->peer_settings_received());
}

TEST(H2Connection, BadPrefaceRejected) {
  ConnPair pair;
  const util::Bytes garbage = util::to_bytes("GET / HTTP/1.1\r\n");
  EXPECT_THROW(pair.server->on_bytes(garbage), FrameError);
}

TEST(H2Connection, RequestReachesServerWithHeaders) {
  ConnPair pair;
  pair.start();
  std::uint32_t got_stream = 0;
  hpack::HeaderList got_headers;
  bool got_end = false;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList& h, bool end) {
    got_stream = id;
    got_headers = h;
    got_end = end;
  };
  const std::uint32_t id = pair.client->send_request(get_request("/index.html"));
  pair.pump();
  EXPECT_EQ(got_stream, id);
  EXPECT_EQ(id, 1u);
  EXPECT_TRUE(got_end);
  ASSERT_EQ(got_headers.size(), 4u);
  EXPECT_EQ(got_headers[3].value, "/index.html");
}

TEST(H2Connection, StreamIdsAreOddAndIncreasing) {
  ConnPair pair;
  pair.start();
  pair.server->on_request = [](std::uint32_t, const hpack::HeaderList&, bool) {};
  EXPECT_EQ(pair.client->send_request(get_request("/a")), 1u);
  EXPECT_EQ(pair.client->send_request(get_request("/b")), 3u);
  EXPECT_EQ(pair.client->send_request(get_request("/c")), 5u);
}

TEST(H2Connection, ResponseBodyDeliveredWithEndStream) {
  ConnPair pair;
  pair.start();
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    pair.server->send_response_headers(id, {{":status", "200"}});
    pair.server->send_data(id, util::patterned_bytes(30'000, 1), true);
  };
  util::Bytes body;
  bool ended = false;
  hpack::HeaderList response_headers;
  pair.client->on_response_headers = [&](std::uint32_t, const hpack::HeaderList& h) {
    response_headers = h;
  };
  pair.client->on_data = [&](std::uint32_t, util::BytesView d, bool end) {
    body.insert(body.end(), d.begin(), d.end());
    ended = ended || end;
  };
  (void)pair.client->send_request(get_request("/big"));
  pair.pump();
  EXPECT_EQ(response_headers.at(0).value, "200");
  EXPECT_EQ(body, util::patterned_bytes(30'000, 1));
  EXPECT_TRUE(ended);
}

TEST(H2Connection, DataFramesRespectMaxFrameSize) {
  ConnPair pair;
  pair.start();
  std::size_t data_frames = 0;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    pair.server->send_response_headers(id, {{":status", "200"}});
    pair.server->send_data(id, util::patterned_bytes(40'000, 2), true);
  };
  pair.client->on_data = [&](std::uint32_t, util::BytesView d, bool) {
    EXPECT_LE(d.size(), kDefaultMaxFrameSize);
    ++data_frames;
  };
  (void)pair.client->send_request(get_request("/big"));
  pair.pump();
  EXPECT_GE(data_frames, 3u);  // 40000 / 16384 -> at least 3 frames
}

TEST(H2Connection, FlowControlBlocksUntilWindowUpdate) {
  // Tiny client windows: the server must stall mid-body, then resume as the
  // client's auto window updates arrive.
  ConnectionConfig client_cfg;
  client_cfg.local_settings.initial_window_size = 4'096;
  ConnPair pair(client_cfg);
  pair.client->start();
  pair.server->start();
  // Deliver only the client's SETTINGS to the server first.
  pair.pump();

  std::uint32_t stream = 0;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    stream = id;
    pair.server->send_response_headers(id, {{":status", "200"}});
  };
  util::Bytes body;
  pair.client->on_data = [&](std::uint32_t, util::BytesView d, bool) {
    body.insert(body.end(), d.begin(), d.end());
  };
  (void)pair.client->send_request(get_request("/slow"));
  pair.pump();
  ASSERT_NE(stream, 0u);

  pair.server->send_data(stream, util::patterned_bytes(50'000, 3), true);
  // Before pumping, the stream window (4096) caps what was written.
  EXPECT_GT(pair.server->stream(stream).pending.size(), 0u);
  EXPECT_EQ(pair.server->blocked_stream_count(), 1u);
  pair.pump();  // window updates flow back and drain the rest
  EXPECT_EQ(body, util::patterned_bytes(50'000, 3));
  EXPECT_EQ(pair.server->blocked_stream_count(), 0u);
}

// send_data frames straight from the caller's view while the windows allow
// and copies only the residue into the pending queue. The frames, their
// wire spans and the on_stream_drained calls are pinned to what the sender
// produced when it queued every byte first.
TEST(H2Connection, WindowLimitedSendQueuesOnlyTheResidue) {
  ConnectionConfig client_cfg;
  client_cfg.local_settings.initial_window_size = 1'000;
  ConnPair pair(client_cfg);
  pair.start();
  std::uint32_t stream = 0;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    stream = id;
  };
  (void)pair.client->send_request(get_request("/residue"));
  pair.pump();
  ASSERT_NE(stream, 0u);
  std::string events;
  pair.server->on_frame_sent = [&](std::uint32_t id, FrameType type, WireSpan span) {
    events += std::string(to_string(type)) + " " + std::to_string(id) + " " +
              std::to_string(span.begin) + "-" + std::to_string(span.end) + "; ";
  };
  pair.server->on_stream_drained = [&](std::uint32_t id) {
    events += "drained " + std::to_string(id) + "; ";
  };
  util::Bytes got;
  pair.client->on_data = [&](std::uint32_t, util::BytesView d, bool) {
    got.insert(got.end(), d.begin(), d.end());
  };
  const util::Bytes body = util::patterned_bytes(2'500, 4);
  pair.server->send_response_headers(stream, {{":status", "200"}});
  pair.server->send_data(stream, util::BytesView(body).first(600), false);
  EXPECT_EQ(pair.server->stream(stream).pending.size(), 0u);
  // 400 bytes fit the window; the residue is copied, so the caller's buffer
  // may change as soon as send_data returns.
  util::Bytes caller(body.begin() + 600, body.begin() + 2'000);
  pair.server->send_data(stream, caller, false);
  std::fill(caller.begin(), caller.end(), std::uint8_t{0xee});
  EXPECT_EQ(pair.server->stream(stream).pending.size(), 1'000u);
  // With bytes queued, a later write queues behind them.
  pair.server->send_data(stream, util::BytesView(body).subspan(2'000), true);
  EXPECT_EQ(pair.server->stream(stream).pending.size(), 1'500u);
  pair.pump();
  EXPECT_EQ(got, body);
  EXPECT_EQ(pair.server->blocked_stream_count(), 0u);
  EXPECT_EQ(events,
            "HEADERS 1 54-67; DATA 1 67-676; drained 1; DATA 1 676-1085; "
            "DATA 1 1085-1694; DATA 1 1694-2603; drained 1; ");
}

TEST(H2Connection, ConnectionWindowExtraIsGranted) {
  ConnectionConfig client_cfg;
  client_cfg.connection_window_extra = 1 << 20;
  ConnPair pair(client_cfg);
  pair.start();
  // Server's view of the connection send window grew by the grant.
  EXPECT_EQ(pair.server->connection_send_window(), 65'535 + (1 << 20));
}

TEST(H2Connection, RstStreamFlushesPendingAndNotifiesPeer) {
  ConnectionConfig client_cfg;
  client_cfg.local_settings.initial_window_size = 1'024;
  ConnPair pair(client_cfg);
  pair.start();
  std::uint32_t stream = 0;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    stream = id;
    pair.server->send_response_headers(id, {{":status", "200"}});
  };
  bool server_saw_rst = false;
  pair.server->on_rst_stream = [&](std::uint32_t, ErrorCode code) {
    server_saw_rst = true;
    EXPECT_EQ(code, ErrorCode::kCancel);
  };
  const std::uint32_t id = pair.client->send_request(get_request("/cancel-me"));
  pair.pump();
  ASSERT_NE(stream, 0u);
  // Write the body while the client's bytes are NOT being delivered: flow
  // control (1 KiB stream window) blocks most of it in the pending queue.
  pair.server->send_data(stream, util::patterned_bytes(100'000, 4), true);
  EXPECT_GT(pair.server->stream(stream).pending.size(), 0u);
  pair.client->rst_stream(id, ErrorCode::kCancel);
  pair.pump();
  EXPECT_TRUE(server_saw_rst);
  EXPECT_TRUE(pair.server->stream(stream).pending.empty()) << "queue flushed on reset";
  EXPECT_EQ(pair.server->stream(stream).state, StreamState::kClosed);
}

TEST(H2Connection, PingIsAnsweredWithAck) {
  ConnPair pair;
  pair.start();
  const std::uint64_t frames_before = pair.client->stats().frames_received;
  pair.client->ping();
  pair.pump();
  EXPECT_GT(pair.client->stats().frames_received, frames_before) << "PONG arrived";
}

TEST(H2Connection, GoAwayReachesPeer) {
  ConnPair pair;
  pair.start();
  bool saw_goaway = false;
  pair.client->on_goaway = [&](ErrorCode code) {
    saw_goaway = true;
    EXPECT_EQ(code, ErrorCode::kNoError);
  };
  pair.server->goaway(ErrorCode::kNoError);
  pair.pump();
  EXPECT_TRUE(saw_goaway);
}

TEST(H2Connection, ServerPushDeliversPromisedResource) {
  ConnPair pair;
  pair.start();
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    pair.server->send_response_headers(id, {{":status", "200"}});
    const std::uint32_t promised = pair.server->push_promise(id,
                                                             get_request("/style.css"));
    pair.server->send_data(id, util::patterned_bytes(100, 5), true);
    pair.server->send_response_headers(promised, {{":status", "200"}});
    pair.server->send_data(promised, util::patterned_bytes(700, 6), true);
  };
  std::uint32_t promised_id = 0;
  hpack::HeaderList promised_request;
  pair.client->on_push_promise = [&](std::uint32_t parent, std::uint32_t promised,
                                     const hpack::HeaderList& h) {
    EXPECT_EQ(parent, 1u);
    promised_id = promised;
    promised_request = h;
  };
  util::Bytes pushed_body;
  pair.client->on_data = [&](std::uint32_t id, util::BytesView d, bool) {
    if (id == promised_id) pushed_body.insert(pushed_body.end(), d.begin(), d.end());
  };
  (void)pair.client->send_request(get_request("/index.html"));
  pair.pump();
  EXPECT_EQ(promised_id, 2u);
  EXPECT_EQ(promised_request.back().value, "/style.css");
  EXPECT_EQ(pushed_body, util::patterned_bytes(700, 6));
  EXPECT_EQ(pair.server->stats().pushes_sent, 1u);
}

TEST(H2Connection, PushRejectedWhenPeerDisablesIt) {
  ConnectionConfig client_cfg;
  client_cfg.local_settings.enable_push = false;
  ConnPair pair(client_cfg);
  pair.start();
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    EXPECT_THROW((void)pair.server->push_promise(id, get_request("/x")),
                 std::logic_error);
  };
  (void)pair.client->send_request(get_request("/index.html"));
  pair.pump();
}

TEST(H2Connection, HpackContextSurvivesManyRequests) {
  ConnPair pair;
  pair.start();
  std::vector<std::string> paths;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList& h, bool) {
    for (const auto& header : h) {
      if (header.name == ":path") paths.push_back(header.value);
    }
    pair.server->send_response_headers(id, {{":status", "200"}}, true);
  };
  for (int i = 0; i < 40; ++i) {
    (void)pair.client->send_request(get_request("/obj/" + std::to_string(i % 7)));
    pair.pump();
  }
  ASSERT_EQ(paths.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(paths[static_cast<std::size_t>(i)], "/obj/" + std::to_string(i % 7));
  }
}

TEST(H2Connection, FrameSentCallbackReportsSpans) {
  ConnPair pair;
  std::vector<FrameType> sent_types;
  std::uint64_t last_end = 0;
  bool monotonic = true;
  pair.client->on_frame_sent = [&](std::uint32_t, FrameType t, WireSpan span) {
    sent_types.push_back(t);
    if (span.begin < last_end) monotonic = false;
    last_end = span.end;
  };
  pair.start();
  (void)pair.client->send_request(get_request("/x"));
  pair.pump();
  EXPECT_TRUE(monotonic);
  ASSERT_GE(sent_types.size(), 2u);
  EXPECT_EQ(sent_types[0], FrameType::kSettings);
}

TEST(H2Connection, LargeHeaderBlockUsesContinuationFrames) {
  ConnPair pair;
  pair.start();
  hpack::HeaderList got;
  pair.server->on_request = [&](std::uint32_t, const hpack::HeaderList& h, bool) {
    got = h;
  };
  // A header block well beyond one 16 KiB frame (incompressible values).
  hpack::HeaderList headers = get_request("/big-headers");
  for (int i = 0; i < 60; ++i) {
    std::string value;
    for (int j = 0; j < 800; ++j) {
      value.push_back(static_cast<char>('A' + (i * 31 + j * 7) % 26));
    }
    headers.push_back({"x-blob-" + std::to_string(i), value});
  }
  (void)pair.client->send_request(headers);
  pair.pump();
  EXPECT_EQ(got, headers) << "HEADERS + CONTINUATION reassembled intact";
}

TEST(H2Connection, ContinuationWithoutHeadersRejected) {
  ConnPair pair;
  pair.start();
  ContinuationFrame cf;
  cf.stream_id = 1;
  cf.header_block = util::patterned_bytes(10, 1);
  EXPECT_THROW(pair.server->on_bytes(encode_frame(Frame{cf})), FrameError);
}

TEST(H2Connection, PriorityWeightsAreRecorded) {
  ConnPair pair;
  pair.start();
  pair.server->on_request = [](std::uint32_t, const hpack::HeaderList&, bool) {};
  PriorityFrame prio;
  prio.weight = 220;
  const std::uint32_t id = pair.client->send_request(get_request("/heavy"), prio);
  pair.pump();
  EXPECT_EQ(pair.server->stream_weight(id), 220);
  EXPECT_EQ(pair.server->stream_weight(9'999), 16) << "default weight";
  // Standalone PRIORITY updates too.
  PriorityFrame update;
  update.stream_id = id;
  update.weight = 40;
  pair.server->on_bytes(encode_frame(Frame{update}));
  EXPECT_EQ(pair.server->stream_weight(id), 40);
}

TEST(H2Connection, StreamLookupErrors) {
  ConnPair pair;
  pair.start();
  EXPECT_FALSE(pair.client->stream_exists(99));
  EXPECT_THROW((void)pair.client->stream(99), std::out_of_range);
  EXPECT_THROW(pair.client->send_data(99, util::patterned_bytes(1, 1), true),
               std::out_of_range);
}

TEST(H2Connection, ServerCannotSendRequests) {
  ConnPair pair;
  pair.start();
  EXPECT_THROW((void)pair.server->send_request(get_request("/x")), std::logic_error);
  EXPECT_THROW((void)pair.client->push_promise(1, get_request("/x")), std::logic_error);
}

class ChunkingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChunkingFuzz, ArbitraryByteChunkingPreservesProtocol) {
  // Deliver every wire byte stream in random-sized chunks: framing must not
  // depend on write boundaries.
  sim::Rng rng(GetParam());
  ConnPair pair;

  const auto chunked_deliver = [&rng](Connection& to, std::deque<util::Bytes>& queue) {
    while (!queue.empty()) {
      util::Bytes bytes = std::move(queue.front());
      queue.pop_front();
      std::size_t pos = 0;
      while (pos < bytes.size()) {
        const std::size_t n = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(bytes.size() - pos)));
        to.on_bytes(util::BytesView(bytes.data() + pos, n));
        pos += n;
      }
    }
  };
  const auto pump_chunked = [&] {
    while (!pair.to_server.empty() || !pair.to_client.empty()) {
      chunked_deliver(*pair.server, pair.to_server);
      chunked_deliver(*pair.client, pair.to_client);
    }
  };

  pair.client->start();
  pair.server->start();
  pump_chunked();

  util::Bytes body;
  bool done = false;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    pair.server->send_response_headers(id, {{":status", "200"}});
    pair.server->send_data(id, util::patterned_bytes(77'777, 7), true);
  };
  pair.client->on_data = [&](std::uint32_t, util::BytesView d, bool end) {
    body.insert(body.end(), d.begin(), d.end());
    done = done || end;
  };
  (void)pair.client->send_request(get_request("/chunked"));
  pump_chunked();
  EXPECT_TRUE(done);
  EXPECT_EQ(body, util::patterned_bytes(77'777, 7));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkingFuzz, ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace h2priv::h2
