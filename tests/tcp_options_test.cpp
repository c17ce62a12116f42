// TCP behavioural options: Nagle coalescing and delayed ACKs.
#include <gtest/gtest.h>

#include "h2priv/tcp/connection.hpp"
#include "tcp_pair.hpp"

namespace h2priv::tcp {
namespace {

using h2priv::testing::TcpPair;
using h2priv::testing::TcpPairConfig;
using util::milliseconds;
using util::seconds;

TEST(TcpNagle, CoalescesSmallWritesWhileDataOutstanding) {
  TcpPairConfig cfg;
  cfg.client_tcp.nagle = true;
  cfg.delay = milliseconds(20);
  TcpPair pair(cfg);
  ASSERT_TRUE(pair.establish());
  util::Bytes got;
  pair.server->on_data = [&](util::BytesView d) {
    got.insert(got.end(), d.begin(), d.end());
  };

  // 20 tiny writes in one instant: the first goes out alone, the rest
  // coalesce behind it instead of producing 20 tinygrams.
  const std::uint64_t before = pair.client->stats().data_segments_sent;
  for (int i = 0; i < 20; ++i) {
    pair.client->send(util::patterned_bytes(10, static_cast<std::uint32_t>(i)));
  }
  pair.run_for(seconds(2));
  const std::uint64_t segments = pair.client->stats().data_segments_sent - before;
  EXPECT_EQ(got.size(), 200u);
  EXPECT_LE(segments, 3u) << "Nagle must coalesce the burst";
}

TEST(TcpNagle, DisabledSendsImmediately) {
  TcpPairConfig cfg;
  cfg.client_tcp.nagle = false;
  cfg.delay = milliseconds(20);
  TcpPair pair(cfg);
  ASSERT_TRUE(pair.establish());
  pair.server->on_data = [](util::BytesView) {};
  const std::uint64_t before = pair.client->stats().data_segments_sent;
  for (int i = 0; i < 10; ++i) {
    pair.client->send(util::patterned_bytes(10, static_cast<std::uint32_t>(i)));
  }
  pair.run_for(seconds(2));
  EXPECT_EQ(pair.client->stats().data_segments_sent - before, 10u);
}

TEST(TcpNagle, FullSegmentsAreNeverHeld) {
  TcpPairConfig cfg;
  cfg.client_tcp.nagle = true;
  TcpPair pair(cfg);
  ASSERT_TRUE(pair.establish());
  util::Bytes got;
  pair.server->on_data = [&](util::BytesView d) {
    got.insert(got.end(), d.begin(), d.end());
  };
  pair.client->send(util::patterned_bytes(50'000, 1));
  pair.run_for(seconds(5));
  EXPECT_EQ(got, util::patterned_bytes(50'000, 1));
}

TEST(TcpDelayedAck, HalvesAckVolumeOnBulkTransfer) {
  TcpPairConfig immediate_cfg, delayed_cfg;
  delayed_cfg.server_tcp.delayed_ack = true;

  std::uint64_t acks_immediate = 0, acks_delayed = 0;
  for (int variant = 0; variant < 2; ++variant) {
    TcpPair pair(variant == 0 ? immediate_cfg : delayed_cfg);
    ASSERT_TRUE(pair.establish());
    util::Bytes got;
    pair.server->on_data = [&](util::BytesView d) {
      got.insert(got.end(), d.begin(), d.end());
    };
    std::size_t sent = 0;
    const util::Bytes payload = util::patterned_bytes(150'000, 9);
    const auto feed = [&] {
      while (sent < payload.size() && pair.client->send_capacity() > 0) {
        const std::size_t n = std::min<std::size_t>(
            static_cast<std::size_t>(pair.client->send_capacity()),
            payload.size() - sent);
        pair.client->send(
            util::SharedBytes::copy_of(util::BytesView(payload.data() + sent, n)));
        sent += n;
      }
    };
    pair.client->on_writable = feed;
    feed();
    pair.run_for(seconds(30));
    ASSERT_EQ(got, payload);
    (variant == 0 ? acks_immediate : acks_delayed) = pair.server->stats().acks_sent;
  }
  EXPECT_LT(acks_delayed, acks_immediate * 3 / 4)
      << "delayed ACKs must materially reduce ACK volume";
  EXPECT_GT(acks_delayed, acks_immediate / 4) << "but the timer still flushes";
}

TEST(TcpDelayedAck, OutOfOrderDataStillAckedImmediately) {
  TcpPairConfig cfg;
  cfg.server_tcp.delayed_ack = true;
  cfg.loss = 0.06;
  cfg.seed = 31;
  TcpPair pair(cfg);
  ASSERT_TRUE(pair.establish(seconds(60)));
  util::Bytes got;
  pair.server->on_data = [&](util::BytesView d) {
    got.insert(got.end(), d.begin(), d.end());
  };
  std::size_t sent = 0;
  const util::Bytes payload = util::patterned_bytes(120'000, 3);
  const auto feed = [&] {
    while (sent < payload.size() && pair.client->send_capacity() > 0) {
      const std::size_t n = std::min<std::size_t>(
          static_cast<std::size_t>(pair.client->send_capacity()), payload.size() - sent);
      pair.client->send(
          util::SharedBytes::copy_of(util::BytesView(payload.data() + sent, n)));
      sent += n;
    }
  };
  pair.client->on_writable = feed;
  feed();
  pair.run_for(seconds(120));
  EXPECT_EQ(got, payload) << "loss recovery must still work under delayed ACKs";
  EXPECT_GT(pair.server->stats().dup_acks_sent, 0u)
      << "dup ACKs bypass the delay (they are the loss signal)";
}

TEST(TcpDelayedAck, TimerFlushesSoloSegment) {
  TcpPairConfig cfg;
  cfg.server_tcp.delayed_ack = true;
  TcpPair pair(cfg);
  ASSERT_TRUE(pair.establish());
  pair.server->on_data = [](util::BytesView) {};
  pair.client->send(util::patterned_bytes(100, 1));
  pair.run_for(seconds(2));
  // The single segment's ACK arrived (after up to 40 ms): client fully acked.
  EXPECT_EQ(pair.client->send_capacity(), pair.client->config().send_buffer_limit);
}

}  // namespace
}  // namespace h2priv::tcp
