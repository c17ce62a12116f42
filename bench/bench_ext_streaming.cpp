// Extension (paper §VII, "Exploring other types of web traffic"): does the
// serialization attack transfer to adaptive video streaming?
//
// A DASH-like player fetches 2-second segments from a 4-rung bitrate ladder,
// choosing the rung by measured throughput. The secret is the rung sequence.
//   (a) paced player: one fetch per period  -> segments serialize naturally,
//       a passive observer reads the rungs off the sizes;
//   (b) prefetching player: two segments in flight -> sizes blur (the same
//       multiplexing defense as the web case);
//   (c) prefetching player + the adversary's request spacing -> serialized
//       again: the attack transfers.
#include <deque>

#include "bench_common.hpp"
#include "h2priv/core/controller.hpp"
#include "h2priv/core/monitor.hpp"
#include "h2priv/server/h2_server.hpp"
#include "h2priv/web/streaming.hpp"

using namespace h2priv;

namespace {

constexpr int kSegments = 24;

struct StreamRun {
  int correct_rungs = 0;   // adversary's per-segment rung recovery
  int segments_played = 0;
  double mean_dom = 0.0;
};

StreamRun run_stream(bool prefetch, bool attack_spacing, std::uint64_t seed) {
  sim::Simulator sim;
  sim::Rng rng(seed);
  const web::StreamingLibrary lib = web::build_streaming_library(kSegments);

  // Topology: client <-> middlebox <-> server, 12 ms one-way, 20 Mbps access
  // (so the ladder's top rung is sustainable but not trivial).
  tcp::TcpConfig ccfg, scfg;
  ccfg.local_port = 40'000; ccfg.remote_port = 443;
  scfg.local_port = 443; scfg.remote_port = 40'000;
  tcp::Connection ctcp(sim, ccfg, nullptr), stcp(sim, scfg, nullptr);
  net::Middlebox mb(sim);
  net::LinkConfig hop;
  hop.propagation = util::milliseconds(12);
  hop.rate = util::megabits_per_second(20);
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

  tls::Session ctls(tls::Role::kClient, seed ^ 0xabc, ctcp);
  tls::Session stls(tls::Role::kServer, seed ^ 0xabc, stcp);
  analysis::GroundTruth truth;
  server::H2Server server(sim, lib.site, server::ServerConfig{}, stls, rng.fork(),
                          &truth);

  core::TrafficMonitor monitor(mb);
  core::NetworkController controller(sim, mb, rng.fork());
  if (attack_spacing) controller.set_request_spacing(util::milliseconds(800));

  // --- the player -----------------------------------------------------------
  h2::ConnectionConfig player_cfg;
  player_cfg.local_settings.initial_window_size = 1 << 20;
  player_cfg.connection_window_extra = 1 << 22;
  h2::Connection player(h2::Role::kClient, player_cfg, [&](const util::Pieces& b) {
    const tls::WireRange r = ctls.send_app(b);
    return h2::WireSpan{r.begin, r.end};
  });
  ctls.on_app_data = [&](util::BytesView b) { player.on_bytes(b); };

  struct Fetch {
    int segment;
    int rung;
    util::TimePoint started;
    std::size_t bytes = 0;
  };
  std::map<std::uint32_t, Fetch> in_flight;
  std::vector<int> true_rungs;
  int next_segment = 0;
  int current_rung = 1;
  double throughput_kbps = 1'000;

  std::function<void()> request_next = [&] {
    if (next_segment >= kSegments) return;
    const int segment = next_segment++;
    true_rungs.push_back(current_rung);
    const web::SiteObject& object =
        lib.site.object(lib.segment(segment, current_rung));
    const std::uint32_t id = player.send_request({{":method", "GET"},
                                                  {":scheme", "https"},
                                                  {":authority", "cdn"},
                                                  {":path", object.path}});
    in_flight.emplace(id, Fetch{segment, current_rung, sim.now()});
  };

  player.on_data = [&](std::uint32_t id, util::BytesView d, bool end) {
    auto it = in_flight.find(id);
    if (it == in_flight.end()) return;
    it->second.bytes += d.size();
    if (!end) return;
    // ABR: exponential throughput estimate picks the next rung.
    const double seconds = (sim.now() - it->second.started).seconds();
    if (seconds > 0) {
      const double kbps = static_cast<double>(it->second.bytes) * 8.0 / 1'000.0 / seconds;
      throughput_kbps = 0.6 * throughput_kbps + 0.4 * kbps;
    }
    current_rung = 0;
    for (int r = web::kBitrateRungs - 1; r >= 0; --r) {
      if (throughput_kbps * 0.8 >=
          static_cast<double>(web::kLadderKbps[static_cast<std::size_t>(r)])) {
        current_rung = r;
        break;
      }
    }
    in_flight.erase(it);
    if (prefetch) {
      request_next();  // keep the pipe full: fetch as soon as one finishes
    } else {
      sim.schedule(web::kSegmentDuration, request_next);  // paced playback
    }
  };

  ctls.on_established = [&] {
    player.start();
    request_next();
    if (prefetch) request_next();
  };

  stcp.listen();
  ctcp.connect();
  sim.run_until(util::TimePoint{} + util::seconds(120));

  // --- the adversary: burst sizes -> nearest rung ---------------------------
  analysis::SizeCatalog ladder;
  for (int r = 0; r < web::kBitrateRungs; ++r) {
    ladder.add("q" + std::to_string(r), web::StreamingLibrary::rung_bytes(r));
  }
  const auto& records = monitor.records(net::Direction::kServerToClient);
  const auto bursts = analysis::segment_bursts(records);
  std::vector<int> seen_rungs;
  for (const auto& b : bursts) {
    if (const auto entry = ladder.match(b.body_estimate, 2'000, 0.05)) {
      seen_rungs.push_back(entry->label[1] - '0');
    }
  }

  StreamRun out;
  out.segments_played = static_cast<int>(true_rungs.size());
  for (std::size_t i = 0; i < true_rungs.size() && i < seen_rungs.size(); ++i) {
    out.correct_rungs += true_rungs[i] == seen_rungs[i];
  }
  double dom = 0;
  int n = 0;
  for (const auto& inst : truth.instances()) {
    if (!inst.data.empty()) {
      dom += truth.degree_of_multiplexing(inst.id);
      ++n;
    }
  }
  out.mean_dom = n > 0 ? dom / n : 0.0;
  return out;
}

/// Returns the % of bitrate rungs the adversary recovered.
double report(const char* name, bool prefetch, bool attack, int runs) {
  // Per-seed player sessions are independent; spread them over the harness's
  // worker pool like every run_batch-based bench.
  std::vector<StreamRun> per_run(static_cast<std::size_t>(runs));
  core::parallel_for(runs, bench::Harness::instance().jobs, [&](int i) {
    per_run[static_cast<std::size_t>(i)] =
        run_stream(prefetch, attack, 600 + static_cast<std::uint64_t>(i));
  });
  double correct = 0, played = 0, dom = 0;
  for (const StreamRun& r : per_run) {
    correct += r.correct_rungs;
    played += r.segments_played;
    dom += r.mean_dom;
  }
  const double recovered = played > 0 ? 100.0 * correct / played : 0.0;
  std::printf("%-34s | %-12.2f | %-18.0f\n", name, dom / runs, recovered);
  return recovered;
}

}  // namespace

int main(int argc, char** argv) {
  const int runs = bench::runs_from_argv(argc, argv, 20);
  bench::print_header("Extension", "streaming traffic (paper SSVII)",
                      "Recovering the DASH bitrate-rung sequence from segment size"
                      "s", runs);

  std::printf("%-34s | %-12s | %-18s\n", "player / adversary", "mean DoM",
              "rungs recovered (%)");
  std::printf("-----------------------------------+--------------+-------------------\n");
  const double paced = report("paced player, passive observer", false, false, runs);
  const double prefetch = report("prefetching player, passive", true, false, runs);
  const double attacked = report("prefetching player + spacing", true, true, runs);

  std::printf("\nexpected: paced streaming leaks the rung sequence to a passive observer;"
              "\n"
              "prefetch pipelining blurs it (multiplexing); the request-spacing attack\n"
              "restores it — the paper's attack transfers to streaming traffic.\n");
  bench::emit_bench_json("ext_streaming", {{"paced_recovered_pct", paced},
                                           {"prefetch_recovered_pct", prefetch},
                                           {"attacked_recovered_pct", attacked}});
  return 0;
}
