// Extension — closed-world webpage fingerprinting (the attack family the
// paper builds on, refs [2]-[12]): a burst-profile classifier identifies
// which of K pages a victim loaded.
//
// K synthetic pages with distinct object-size sets are served over the full
// stack. Conditions:
//   (a) sequential (HTTP/1.1-style) server — the classic fingerprinting prey;
//   (b) multiplexing server — the defense under study;
//   (c) multiplexing server + the adversary's request spacing — the attack.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "h2priv/analysis/fingerprint.hpp"
#include "h2priv/core/controller.hpp"
#include "h2priv/core/monitor.hpp"
#include "h2priv/server/h2_server.hpp"

using namespace h2priv;

namespace {

constexpr int kPages = 8;
constexpr int kObjectsPerPage = 12;

web::Site make_page(int page) {
  // Deterministic, page-specific object sizes (2-90 KB), normalized to one
  // common page total so the coarse total-bytes channel carries no identity:
  // only the per-object size profile distinguishes pages — the channel
  // multiplexing is supposed to hide.
  constexpr std::size_t kPageTotal = 480'000;
  web::Site site;
  sim::Rng rng(0xf00d + static_cast<std::uint64_t>(page));
  std::vector<std::size_t> sizes;
  std::size_t total = 0;
  for (int i = 0; i < kObjectsPerPage; ++i) {
    sizes.push_back(static_cast<std::size_t>(rng.uniform_int(2'000, 90'000)));
    total += sizes.back();
  }
  // Scale proportionally to the common total (rounding slack into the last).
  std::size_t scaled_total = 0;
  for (auto& size : sizes) {
    size = std::max<std::size_t>(1'200, size * kPageTotal / total);
    scaled_total += size;
  }
  sizes.back() += kPageTotal - std::min(kPageTotal, scaled_total);
  for (int i = 0; i < kObjectsPerPage; ++i) {
    site.add("/p" + std::to_string(page) + "/obj" + std::to_string(i),
             "application/octet-stream", sizes[static_cast<std::size_t>(i)],
             util::microseconds(300));
  }
  return site;
}

/// Loads `site` once (all objects requested back-to-back) and returns the
/// adversary's burst profile of the trace.
analysis::SizeProfile load_and_profile(const web::Site& site,
                                       server::InterleavePolicy policy,
                                       bool spacing, std::uint64_t seed,
                                       util::Duration client_rto_min = {}) {
  sim::Simulator sim;
  sim::Rng rng(seed);

  tcp::TcpConfig ccfg, scfg;
  ccfg.local_port = 40'000; ccfg.remote_port = 443;
  if (client_rto_min.ns > 0) ccfg.rto.min = client_rto_min;
  scfg.local_port = 443; scfg.remote_port = 40'000;
  tcp::Connection ctcp(sim, ccfg, nullptr), stcp(sim, scfg, nullptr);
  net::Middlebox mb(sim);
  net::LinkConfig hop;
  hop.propagation = util::milliseconds(10);
  hop.jitter_sigma = util::microseconds(5);
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

  tls::Session ctls(tls::Role::kClient, seed ^ 0x5a5a, ctcp);
  tls::Session stls(tls::Role::kServer, seed ^ 0x5a5a, stcp);
  server::ServerConfig server_cfg;
  server_cfg.policy = policy;
  server::H2Server server(sim, site, server_cfg, stls, rng.fork(), nullptr);

  core::TrafficMonitor monitor(mb);
  core::NetworkController controller(sim, mb, rng.fork());
  if (spacing) controller.set_request_spacing(util::milliseconds(130));

  h2::ConnectionConfig client_cfg;
  client_cfg.local_settings.initial_window_size = 1 << 20;
  client_cfg.connection_window_extra = 1 << 22;
  h2::Connection client(h2::Role::kClient, client_cfg, [&](const util::Pieces& b) {
    const tls::WireRange r = ctls.send_app(b);
    return h2::WireSpan{r.begin, r.end};
  });
  ctls.on_app_data = [&](util::BytesView b) { client.on_bytes(b); };
  ctls.on_established = [&] {
    client.start();
    // Browsers emit discovered-object requests milliseconds apart, not in
    // the same instant (an instantaneous burst would be randomly reordered
    // by path jitter before the adversary's spacing can act on it).
    util::Duration at{};
    for (const web::SiteObject& object : site.objects()) {
      sim.schedule(at, [&client, &object] {
        (void)client.send_request({{":method", "GET"}, {":scheme", "https"},
                                   {":authority", "x"}, {":path", object.path}});
      });
      at += util::milliseconds(5);
    }
  };

  stcp.listen();
  ctcp.connect();
  sim.run_until(util::TimePoint{} + util::seconds(30));

  const auto& records = monitor.records(net::Direction::kServerToClient);
  std::vector<analysis::EstimatedObject> bursts = analysis::segment_bursts(records);
  std::erase_if(bursts, [](const analysis::EstimatedObject& b) {
    return b.body_estimate < 1'024;
  });
  return analysis::profile_from_bursts(bursts);
}

}  // namespace

int main(int argc, char** argv) {
  const int runs = bench::runs_from_argv(argc, argv, 8);
  bench::print_header("Extension", "closed-world fingerprinting (refs [2]-[12])",
                      "Burst-profile classifier over 8 synthetic pages", runs);

  std::vector<web::Site> pages;
  for (int page = 0; page < kPages; ++page) pages.push_back(make_page(page));

  struct Condition {
    const char* name;
    server::InterleavePolicy policy;
    bool spacing;
    util::Duration client_rto_min;
  };
  const Condition conditions[] = {
      {"sequential server, passive", server::InterleavePolicy::kSequential, false, {}},
      {"multiplexing server, passive", server::InterleavePolicy::kRoundRobin, false, {}},
      {"multiplexing + request spacing", server::InterleavePolicy::kRoundRobin, true, {}},
      // The post-phase-1 state: the victim's RTO estimator inflated by the
      // attack's earlier delays, so held requests are never retransmitted —
      // relevant when the victim's requests burst faster than the spacing.
      {"mux + spacing, inflated RTO", server::InterleavePolicy::kRoundRobin, true,
       util::seconds(3)},
  };

  std::printf("%-34s | %-22s\n", "condition", "page identified (%)");
  std::printf("-----------------------------------+----------------------\n");
  std::vector<std::pair<std::string, double>> headline;
  const core::Parallelism jobs = bench::Harness::instance().jobs;
  for (const Condition& cond : conditions) {
    // Page-load simulations dominate the wall clock and are independent per
    // (probe, page); fan them out and classify the collected profiles after.
    std::vector<analysis::SizeProfile> training(kPages);
    core::parallel_for(kPages, jobs, [&](int page) {
      training[static_cast<std::size_t>(page)] =
          load_and_profile(pages[static_cast<std::size_t>(page)], cond.policy,
                           cond.spacing, 1, cond.client_rto_min);
    });
    analysis::Fingerprinter fp;
    for (int page = 0; page < kPages; ++page) {
      fp.train("page-" + std::to_string(page),
               std::move(training[static_cast<std::size_t>(page)]));
    }
    const int total = runs * kPages;
    std::vector<analysis::SizeProfile> probes(static_cast<std::size_t>(total));
    core::parallel_for(total, jobs, [&](int idx) {
      const int probe = idx / kPages;
      const int page = idx % kPages;
      probes[static_cast<std::size_t>(idx)] =
          load_and_profile(pages[static_cast<std::size_t>(page)], cond.policy,
                           cond.spacing, 100 + static_cast<std::uint64_t>(probe),
                           cond.client_rto_min);
    });
    int correct = 0;
    for (int idx = 0; idx < total; ++idx) {
      correct += fp.classify(probes[static_cast<std::size_t>(idx)]) ==
                 "page-" + std::to_string(idx % kPages);
    }
    std::printf("%-34s | %-22.0f\n", cond.name, 100.0 * correct / total);
    std::string key = cond.name;
    for (char& c : key) {
      if (c == ' ' || c == ',' || c == '+') c = '_';
    }
    headline.emplace_back("identified_pct_" + key, 100.0 * correct / total);
  }

  std::printf("\nexpected: near-perfect identification against the sequential server\n"
              "(the HTTP/1.x literature); a real drop under multiplexing (pages share\n"
              "the same TOTAL size, so only per-object boundaries carry identity); and\n"
              "full recovery under the request-spacing attack. The residual passive\n"
              "accuracy comes from burst structure that survives interleaving.\n");
  bench::emit_bench_json("ext_fingerprinting", headline);
  return 0;
}
