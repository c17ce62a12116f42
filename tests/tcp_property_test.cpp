// Property suite: the TCP byte stream is reliable and ordered under a grid
// of hostile network conditions (loss x delay x jitter), in both directions.
#include <tuple>

#include <gtest/gtest.h>

#include "h2priv/tcp/connection.hpp"
#include "tcp_pair.hpp"

namespace h2priv::tcp {
namespace {

using h2priv::testing::TcpPair;
using h2priv::testing::TcpPairConfig;
using util::milliseconds;
using util::seconds;

struct Conditions {
  double loss;
  std::int64_t delay_ms;
  std::int64_t jitter_us;
  std::uint64_t seed;
};

class TcpReliability : public ::testing::TestWithParam<Conditions> {};

TEST_P(TcpReliability, DeliversExactBytesBothWays) {
  const Conditions& c = GetParam();
  TcpPairConfig cfg;
  cfg.loss = c.loss;
  cfg.delay = milliseconds(c.delay_ms);
  cfg.jitter_sigma = util::microseconds(c.jitter_us);
  cfg.seed = c.seed;
  TcpPair pair(cfg);
  ASSERT_TRUE(pair.establish(seconds(120)));

  const util::Bytes up = util::patterned_bytes(60'000, 100);
  const util::Bytes down = util::patterned_bytes(90'000, 200);
  util::Bytes got_up, got_down;
  pair.server->on_data = [&](util::BytesView d) {
    got_up.insert(got_up.end(), d.begin(), d.end());
  };
  pair.client->on_data = [&](util::BytesView d) {
    got_down.insert(got_down.end(), d.begin(), d.end());
  };

  std::size_t up_sent = 0, down_sent = 0;
  const auto feed_up = [&] {
    while (up_sent < up.size() && pair.client->send_capacity() > 0) {
      const std::size_t n = std::min<std::size_t>(
          static_cast<std::size_t>(pair.client->send_capacity()), up.size() - up_sent);
      pair.client->send(
          util::SharedBytes::copy_of(util::BytesView(up.data() + up_sent, n)));
      up_sent += n;
    }
  };
  const auto feed_down = [&] {
    while (down_sent < down.size() && pair.server->send_capacity() > 0) {
      const std::size_t n = std::min<std::size_t>(
          static_cast<std::size_t>(pair.server->send_capacity()),
          down.size() - down_sent);
      pair.server->send(
          util::SharedBytes::copy_of(util::BytesView(down.data() + down_sent, n)));
      down_sent += n;
    }
  };
  pair.client->on_writable = feed_up;
  pair.server->on_writable = feed_down;
  feed_up();
  feed_down();
  pair.run_for(seconds(300));

  EXPECT_EQ(got_up, up) << "loss=" << c.loss << " delay=" << c.delay_ms;
  EXPECT_EQ(got_down, down) << "loss=" << c.loss << " delay=" << c.delay_ms;
}

INSTANTIATE_TEST_SUITE_P(
    ConditionGrid, TcpReliability,
    ::testing::Values(
        Conditions{0.00, 1, 0, 1}, Conditions{0.00, 50, 0, 2},
        Conditions{0.01, 5, 0, 3}, Conditions{0.01, 40, 500, 4},
        Conditions{0.05, 5, 0, 5}, Conditions{0.05, 20, 200, 6},
        Conditions{0.10, 5, 0, 7}, Conditions{0.10, 30, 1'000, 8},
        Conditions{0.15, 10, 2'000, 9}, Conditions{0.20, 5, 0, 10}));

class TcpSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpSeedSweep, ModerateLossNeverCorruptsStream) {
  TcpPairConfig cfg;
  cfg.loss = 0.08;
  cfg.delay = milliseconds(8);
  cfg.seed = GetParam();
  TcpPair pair(cfg);
  ASSERT_TRUE(pair.establish(seconds(120)));
  const util::Bytes payload = util::patterned_bytes(40'000, 42);
  util::Bytes got;
  pair.server->on_data = [&](util::BytesView d) {
    got.insert(got.end(), d.begin(), d.end());
  };
  std::size_t sent = 0;
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
  pair.run_for(seconds(300));
  EXPECT_EQ(got, payload);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpSeedSweep, ::testing::Range<std::uint64_t>(100, 115));

}  // namespace
}  // namespace h2priv::tcp
