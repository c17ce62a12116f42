// Figure 1 — "Estimating object sizes from encrypted traffic in
// non-multiplexed vs multiplexed object transmissions".
//
// Two objects are served by (a) a sequential (HTTP/1.1-style) server and
// (b) a round-robin multiplexing HTTP/2 server; a passive observer then
// tries to recover their sizes from the encrypted record trace. In case (a)
// both estimates land within a few bytes; in case (b) the interleaving makes
// the estimates garbage — the privacy effect the paper's adversary destroys.
#include <cmath>

#include "bench_common.hpp"
#include "h2priv/analysis/estimator.hpp"
#include "h2priv/core/monitor.hpp"
#include "h2priv/net/middlebox.hpp"
#include "h2priv/server/h2_server.hpp"
#include "h2priv/client/browser.hpp"
#include "h2priv/tls/session.hpp"

using namespace h2priv;

namespace {

struct CaseResult {
  std::size_t est_o1 = 0;
  std::size_t est_o2 = 0;
  double dom_o1 = 0;
  double dom_o2 = 0;
  std::size_t bursts = 0;
};

constexpr std::size_t kSizeO1 = 120'000;
constexpr std::size_t kSizeO2 = 90'000;

CaseResult run_case(server::InterleavePolicy policy) {
  sim::Simulator sim;
  sim::Rng rng(7);

  web::Site site;
  const web::ObjectId o1 = site.add("/o1.bin", "image/png", kSizeO1,
                                    util::microseconds(200));
  const web::ObjectId o2 = site.add("/o2.bin", "image/png", kSizeO2,
                                    util::microseconds(200));

  tcp::TcpConfig ccfg, scfg;
  ccfg.local_port = 40'000; ccfg.remote_port = 443;
  scfg.local_port = 443; scfg.remote_port = 40'000;
  tcp::Connection ctcp(sim, ccfg, nullptr), stcp(sim, scfg, nullptr);

  net::Middlebox mb(sim);
  net::LinkConfig hop;
  hop.propagation = util::milliseconds(5);
  net::Link c2m(sim, hop, rng.fork(), [&](net::Packet&& p) {
    mb.process(net::Direction::kClientToServer, std::move(p));
  });
  net::Link m2s(sim, hop, rng.fork(), [&](net::Packet&& p) { stcp.on_wire(p.segment); });
  net::Link s2m(sim, hop, rng.fork(), [&](net::Packet&& p) {
    mb.process(net::Direction::kServerToClient, std::move(p));
  });
  net::Link m2c(sim, hop, rng.fork(), [&](net::Packet&& p) { ctcp.on_wire(p.segment); });
  mb.set_output(net::Direction::kClientToServer,
                [&](net::Packet&& p) { m2s.send(std::move(p)); });
  mb.set_output(net::Direction::kServerToClient,
                [&](net::Packet&& p) { m2c.send(std::move(p)); });
  ctcp.set_segment_out([&](util::SharedBytes w) {
    c2m.send(net::Packet{0, net::Direction::kClientToServer, std::move(w)});
  });
  stcp.set_segment_out([&](util::SharedBytes w) {
    s2m.send(net::Packet{0, net::Direction::kServerToClient, std::move(w)});
  });

  tls::Session ctls(tls::Role::kClient, 77, ctcp), stls(tls::Role::kServer, 77, stcp);
  analysis::GroundTruth truth;
  server::ServerConfig server_cfg;
  server_cfg.policy = policy;
  server::H2Server server(sim, site, server_cfg, stls, rng.fork(), &truth);

  // The two GETs arrive back to back (Fig. 1 Case 2) — a raw h2 client.
  h2::ConnectionConfig client_cfg;
  client_cfg.local_settings.initial_window_size = 1 << 20;  // browser-like
  client_cfg.connection_window_extra = 1 << 22;
  h2::Connection client(h2::Role::kClient, client_cfg,
                        [&](const util::Pieces& b) {
                          const tls::WireRange r = ctls.send_app(b);
                          return h2::WireSpan{r.begin, r.end};
                        });
  ctls.on_app_data = [&](util::BytesView b) { client.on_bytes(b); };
  ctls.on_established = [&] {
    client.start();
    (void)client.send_request({{":method", "GET"}, {":scheme", "https"},
                               {":authority", "x"}, {":path", "/o1.bin"}});
    (void)client.send_request({{":method", "GET"}, {":scheme", "https"},
                               {":authority", "x"}, {":path", "/o2.bin"}});
  };

  core::TrafficMonitor monitor(mb);
  stcp.listen();
  ctcp.connect();
  sim.run_until(util::TimePoint{} + util::seconds(20));

  CaseResult out;
  out.dom_o1 = truth.object_dom(o1).value_or(-1);
  out.dom_o2 = truth.object_dom(o2).value_or(-1);
  analysis::SizeCatalog catalog;
  catalog.add("o1", kSizeO1);
  catalog.add("o2", kSizeO2);
  core::ObjectPredictor predictor(monitor, catalog);
  const auto bursts = predictor.bursts_after(util::TimePoint{});
  out.bursts = bursts.size();
  for (const auto& b : bursts) {
    // Attribute each burst to the closest true size for reporting.
    const auto est = static_cast<long long>(b.body_estimate);
    if (std::llabs(est - static_cast<long long>(kSizeO1)) <
        std::llabs(est - static_cast<long long>(kSizeO2))) {
      if (out.est_o1 == 0) out.est_o1 = b.body_estimate;
    } else if (out.est_o2 == 0) {
      out.est_o2 = b.body_estimate;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  (void)bench::runs_from_argv(argc, argv);
  bench::print_header("Figure 1", "Mitra et al., DSN'20, Section II",
                      "Size estimation: serialized vs multiplexed transmission", 1);
  std::printf("true sizes: O1 = %zu bytes, O2 = %zu bytes\n\n", kSizeO1, kSizeO2);

  const CaseResult seq = run_case(server::InterleavePolicy::kSequential);
  std::printf("Case 1 (no multiplexing, sequential server):\n");
  std::printf("  DoM(O1)=%.2f DoM(O2)=%.2f   observer estimates: "
              "O1≈%zu O2≈%zu (%zu bursts)\n",
              seq.dom_o1, seq.dom_o2, seq.est_o1, seq.est_o2, seq.bursts);
  std::printf(
      "  -> both sizes recovered within %lld / %lld bytes\n\n",
      std::llabs(static_cast<long long>(seq.est_o1) - static_cast<long long>(kSizeO1)),
      std::llabs(static_cast<long long>(seq.est_o2) - static_cast<long long>(kSizeO2)));

  const CaseResult mux = run_case(server::InterleavePolicy::kRoundRobin);
  std::printf("Case 2 (multiplexed, round-robin HTTP/2 server):\n");
  std::printf("  DoM(O1)=%.2f DoM(O2)=%.2f   observer estimates: "
              "O1≈%zu O2≈%zu (%zu bursts)\n",
              mux.dom_o1, mux.dom_o2, mux.est_o1, mux.est_o2, mux.bursts);
  std::printf("  -> interleaved segments: size estimates no longer match the objects\n");
  bench::emit_bench_json(
      "fig1_size_estimation",
      {{"seq_o1_error_bytes",
        std::fabs(static_cast<double>(seq.est_o1) - static_cast<double>(kSizeO1))},
       {"seq_o2_error_bytes",
        std::fabs(static_cast<double>(seq.est_o2) - static_cast<double>(kSizeO2))},
       {"mux_o1_error_bytes",
        std::fabs(static_cast<double>(mux.est_o1) - static_cast<double>(kSizeO1))}});
  return 0;
}
