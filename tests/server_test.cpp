// H2Server over the full TLS/TCP stack: serving, interleaving policies,
// duplicate handling, resets, ground-truth annotation.
#include "h2priv/server/h2_server.hpp"

#include <gtest/gtest.h>

#include "h2priv/analysis/ground_truth.hpp"
#include "h2priv/h2/connection.hpp"
#include "stack_pair.hpp"

namespace h2priv::server {
namespace {

using h2priv::testing::StackPair;
using util::milliseconds;
using util::seconds;

struct ServerFixture {
  StackPair stack;
  web::Site site;
  analysis::GroundTruth truth;
  std::unique_ptr<H2Server> server;
  std::unique_ptr<h2::Connection> client;  // raw h2 client over the stack

  explicit ServerFixture(ServerConfig config = {}) {
    site.add("/small.html", "text/html", 2'000, util::microseconds(200));
    site.add("/big-a.bin", "application/octet-stream", 200'000, util::microseconds(200));
    site.add("/big-b.bin", "application/octet-stream", 200'000, util::microseconds(200));
    server = std::make_unique<H2Server>(stack.sim(), site, config, *stack.server_tls,
                                        sim::Rng(5), &truth);
    client = std::make_unique<h2::Connection>(
        h2::Role::kClient,
        h2::ConnectionConfig{.local_settings = {.initial_window_size = 1 << 20},
                             .connection_window_extra = 1 << 22},
        [this](const util::Pieces& b) {
          const tls::WireRange r = stack.client_tls->send_app(b);
          return h2::WireSpan{r.begin, r.end};
        });
    stack.client_tls->on_app_data = [this](util::BytesView b) { client->on_bytes(b); };
    stack.client_tls->on_established = [this] { client->start(); };
  }

  bool establish() { return stack.establish(); }

  std::uint32_t get(const std::string& path) {
    return client->send_request({{":method", "GET"},
                                 {":scheme", "https"},
                                 {":authority", "test"},
                                 {":path", path}});
  }
};

TEST(H2Server, ServesObjectWithCorrectHeadersAndBody) {
  ServerFixture f;
  ASSERT_TRUE(f.establish());
  hpack::HeaderList headers;
  util::Bytes body;
  bool done = false;
  f.client->on_response_headers = [&](std::uint32_t, const hpack::HeaderList& h) {
    headers = h;
  };
  f.client->on_data = [&](std::uint32_t, util::BytesView d, bool end) {
    body.insert(body.end(), d.begin(), d.end());
    done = done || end;
  };
  (void)f.get("/small.html");
  f.stack.run_for(seconds(5));
  EXPECT_TRUE(done);
  EXPECT_EQ(body, f.site.object(1).body());
  ASSERT_GE(headers.size(), 3u);
  EXPECT_EQ(headers[0].value, "200");
  EXPECT_EQ(headers[1].value, "text/html");
  EXPECT_EQ(headers[2].value, "2000");
  EXPECT_EQ(f.server->stats().responses_completed, 1u);
}

TEST(H2Server, UnknownPathGets404) {
  ServerFixture f;
  ASSERT_TRUE(f.establish());
  hpack::HeaderList headers;
  f.client->on_response_headers = [&](std::uint32_t, const hpack::HeaderList& h) {
    headers = h;
  };
  (void)f.get("/nope");
  f.stack.run_for(seconds(2));
  ASSERT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers[0].value, "404");
  EXPECT_EQ(f.server->stats().not_found, 1u);
}

TEST(H2Server, RoundRobinInterleavesConcurrentResponses) {
  ServerConfig cfg;
  cfg.policy = InterleavePolicy::kRoundRobin;
  ServerFixture f(cfg);
  ASSERT_TRUE(f.establish());
  f.client->on_data = [](std::uint32_t, util::BytesView, bool) {};
  (void)f.get("/big-a.bin");
  (void)f.get("/big-b.bin");
  f.stack.run_for(seconds(20));
  ASSERT_EQ(f.server->stats().responses_completed, 2u);
  const auto* a = f.truth.primary_instance(2);
  const auto* b = f.truth.primary_instance(3);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_GT(f.truth.degree_of_multiplexing(a->id), 0.5);
  EXPECT_GT(f.truth.degree_of_multiplexing(b->id), 0.5);
}

TEST(H2Server, SequentialPolicySerializesResponses) {
  ServerConfig cfg;
  cfg.policy = InterleavePolicy::kSequential;
  ServerFixture f(cfg);
  ASSERT_TRUE(f.establish());
  f.client->on_data = [](std::uint32_t, util::BytesView, bool) {};
  (void)f.get("/big-a.bin");
  (void)f.get("/big-b.bin");
  f.stack.run_for(seconds(20));
  ASSERT_EQ(f.server->stats().responses_completed, 2u);
  EXPECT_EQ(f.truth.degree_of_multiplexing(f.truth.primary_instance(2)->id), 0.0);
  EXPECT_EQ(f.truth.degree_of_multiplexing(f.truth.primary_instance(3)->id), 0.0);
}

TEST(H2Server, DuplicateRequestSpawnsSecondInstance) {
  ServerFixture f;
  ASSERT_TRUE(f.establish());
  f.client->on_data = [](std::uint32_t, util::BytesView, bool) {};
  (void)f.get("/small.html");
  (void)f.get("/small.html");
  f.stack.run_for(seconds(5));
  EXPECT_EQ(f.server->stats().duplicate_requests, 1u);
  const auto instances = f.truth.instances_of(1);
  ASSERT_EQ(instances.size(), 2u);
  EXPECT_FALSE(instances[0]->duplicate);
  EXPECT_TRUE(instances[1]->duplicate);
  EXPECT_EQ(instances[0]->data_bytes(), instances[1]->data_bytes());
}

TEST(H2Server, RstStreamKillsHandlerMidResponse) {
  ServerConfig cfg;
  cfg.chunk_bytes = 1'024;
  ServerFixture f(cfg);
  ASSERT_TRUE(f.establish());
  std::uint32_t stream = 0;
  std::size_t received = 0;
  f.client->on_data = [&](std::uint32_t id, util::BytesView d, bool) {
    stream = id;
    received += d.size();
  };
  const std::uint32_t id = f.get("/big-a.bin");
  // Let a little data flow, then cancel.
  f.stack.run_for(milliseconds(25));
  f.client->rst_stream(id, h2::ErrorCode::kCancel);
  f.stack.run_for(seconds(5));
  EXPECT_EQ(f.server->stats().streams_reset_by_peer, 1u);
  EXPECT_EQ(f.server->stats().responses_completed, 0u);
  EXPECT_LT(received, 200'000u);
  EXPECT_EQ(f.server->active_handlers(), 0u);
}

TEST(H2Server, GroundTruthSpansAreWithinStream) {
  ServerFixture f;
  ASSERT_TRUE(f.establish());
  f.client->on_data = [](std::uint32_t, util::BytesView, bool) {};
  (void)f.get("/small.html");
  f.stack.run_for(seconds(5));
  const auto* inst = f.truth.primary_instance(1);
  ASSERT_NE(inst, nullptr);
  EXPECT_TRUE(inst->complete);
  // DATA bytes on the wire = body + per-record TLS overhead + frame headers.
  EXPECT_GT(inst->data_bytes(), 2'000u);
  EXPECT_LT(inst->data_bytes(), 2'200u);
  EXPECT_FALSE(inst->headers.empty());
  const auto span = inst->span();
  ASSERT_TRUE(span.has_value());
  EXPECT_LT(span->end, f.stack.transport.server->bytes_enqueued() + 1);
}

TEST(H2Server, ResponseCompleteCallbackFires) {
  ServerFixture f;
  ASSERT_TRUE(f.establish());
  web::ObjectId completed = 0;
  f.server->on_response_complete = [&](web::ObjectId id,
                                       std::uint32_t) { completed = id; };
  f.client->on_data = [](std::uint32_t, util::BytesView, bool) {};
  (void)f.get("/small.html");
  f.stack.run_for(seconds(5));
  EXPECT_EQ(completed, 1u);
}

TEST(H2Server, PushMapPushesMappedResources) {
  ServerConfig cfg;
  cfg.push_map["/small.html"] = {"/big-a.bin"};
  ServerFixture f(cfg);
  ASSERT_TRUE(f.establish());
  std::uint32_t promised_id = 0;
  std::string promised_path;
  f.client->on_push_promise = [&](std::uint32_t parent, std::uint32_t promised,
                                  const hpack::HeaderList& h) {
    EXPECT_EQ(parent, 1u);
    promised_id = promised;
    promised_path = h.back().value;
  };
  std::map<std::uint32_t, std::size_t> bytes;
  f.client->on_data = [&](std::uint32_t id, util::BytesView d, bool) {
    bytes[id] += d.size();
  };
  (void)f.get("/small.html");
  f.stack.run_for(seconds(20));
  EXPECT_EQ(promised_id, 2u);
  EXPECT_EQ(promised_path, "/big-a.bin");
  EXPECT_EQ(bytes[promised_id], 200'000u);
  EXPECT_EQ(f.server->stats().pushes, 1u);
  EXPECT_EQ(f.server->stats().responses_completed, 2u);
}

TEST(H2Server, PushSkippedWhenAlreadyServed) {
  ServerConfig cfg;
  cfg.push_map["/small.html"] = {"/big-a.bin"};
  ServerFixture f(cfg);
  ASSERT_TRUE(f.establish());
  f.client->on_data = [](std::uint32_t, util::BytesView, bool) {};
  (void)f.get("/big-a.bin");  // client fetched it itself first
  f.stack.run_for(seconds(10));
  (void)f.get("/small.html");
  f.stack.run_for(seconds(10));
  EXPECT_EQ(f.server->stats().pushes, 0u);
}

TEST(H2Server, PushRespectsClientDisable) {
  ServerConfig cfg;
  cfg.push_map["/small.html"] = {"/big-a.bin"};
  ServerFixture f(cfg);
  // Client disables push in its SETTINGS.
  // (Rebuild the raw client with push disabled.)
  h2::ConnectionConfig client_cfg;
  client_cfg.local_settings.enable_push = false;
  client_cfg.local_settings.initial_window_size = 1 << 20;
  f.client = std::make_unique<h2::Connection>(
      h2::Role::kClient, client_cfg, [&f](const util::Pieces& b) {
        const tls::WireRange r = f.stack.client_tls->send_app(b);
        return h2::WireSpan{r.begin, r.end};
      });
  f.stack.client_tls->on_app_data = [&f](util::BytesView b) { f.client->on_bytes(b); };
  f.stack.client_tls->on_established = [&f] { f.client->start(); };
  ASSERT_TRUE(f.establish());
  f.client->on_data = [](std::uint32_t, util::BytesView, bool) {};
  (void)f.get("/small.html");
  f.stack.run_for(seconds(10));
  EXPECT_EQ(f.server->stats().pushes, 0u);
}

TEST(H2Server, WeightedPolicyFavoursHeavyStreams) {
  ServerConfig cfg;
  cfg.policy = InterleavePolicy::kWeighted;
  ServerFixture f(cfg);
  ASSERT_TRUE(f.establish());
  std::map<std::uint32_t, util::Bytes> bodies;
  f.client->on_data = [&](std::uint32_t id, util::BytesView d, bool) {
    bodies[id].insert(bodies[id].end(), d.begin(), d.end());
  };
  h2::PriorityFrame heavy;
  heavy.weight = 128;  // 8 chunks per turn vs 1
  const std::uint32_t light = f.client->send_request(
      {{":method", "GET"}, {":scheme", "https"}, {":authority", "t"},
       {":path", "/big-a.bin"}});
  const std::uint32_t fat = f.client->send_request(
      {{":method", "GET"}, {":scheme", "https"}, {":authority", "t"},
       {":path", "/big-b.bin"}}, heavy);
  // The heavy stream should finish its write earlier despite starting later.
  web::ObjectId first_done = 0;
  f.server->on_response_complete = [&](web::ObjectId id, std::uint32_t) {
    if (first_done == 0) first_done = id;
  };
  f.stack.run_for(seconds(30));
  EXPECT_EQ(bodies[light], f.site.object(2).body());
  EXPECT_EQ(bodies[fat], f.site.object(3).body());
  EXPECT_EQ(first_done, 3u) << "weight 128 stream completes first";
}

TEST(H2Server, PolicyNamesForDiagnostics) {
  EXPECT_STREQ(to_string(InterleavePolicy::kRoundRobin), "round-robin");
  EXPECT_STREQ(to_string(InterleavePolicy::kSequential), "sequential");
  EXPECT_STREQ(to_string(InterleavePolicy::kWeighted), "weighted");
}

class PolicySweep : public ::testing::TestWithParam<InterleavePolicy> {};

TEST_P(PolicySweep, AllPoliciesDeliverCorrectBytes) {
  ServerConfig cfg;
  cfg.policy = GetParam();
  ServerFixture f(cfg);
  ASSERT_TRUE(f.establish());
  std::map<std::uint32_t, util::Bytes> bodies;
  f.client->on_data = [&](std::uint32_t id, util::BytesView d, bool) {
    bodies[id].insert(bodies[id].end(), d.begin(), d.end());
  };
  const std::uint32_t s1 = f.get("/big-a.bin");
  const std::uint32_t s2 = f.get("/big-b.bin");
  const std::uint32_t s3 = f.get("/small.html");
  f.stack.run_for(seconds(30));
  EXPECT_EQ(bodies[s1], f.site.object(2).body());
  EXPECT_EQ(bodies[s2], f.site.object(3).body());
  EXPECT_EQ(bodies[s3], f.site.object(1).body());
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicySweep,
                         ::testing::Values(InterleavePolicy::kRoundRobin,
                                           InterleavePolicy::kSequential,
                                           InterleavePolicy::kWeighted));

}  // namespace
}  // namespace h2priv::server
