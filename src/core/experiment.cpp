#include "h2priv/core/experiment.hpp"

#include <algorithm>

#include <fstream>

#include <cmath>

#include <filesystem>

#include <memory>

#include "h2priv/analysis/trace_export.hpp"
#include "h2priv/capture/corpus.hpp"
#include "h2priv/capture/trace_writer.hpp"
#include "h2priv/core/parallel_runner.hpp"
#include "h2priv/obs/export.hpp"
#include "h2priv/obs/metrics.hpp"
#include "h2priv/net/link.hpp"
#include "h2priv/net/middlebox.hpp"
#include "h2priv/sim/simulator.hpp"
#include "h2priv/tcp/connection.hpp"
#include "h2priv/tls/session.hpp"

namespace h2priv::core {

std::string html_label() { return "results-html"; }

std::string party_label(int party) { return "party-" + std::to_string(party + 1); }

analysis::SizeCatalog isidewith_catalog() {
  analysis::SizeCatalog catalog;
  catalog.add(html_label(), web::kResultsHtmlSize);
  for (int p = 0; p < web::kPartyCount; ++p) {
    catalog.add(party_label(p), web::kEmblemSizes[static_cast<std::size_t>(p)]);
  }
  return catalog;
}

RunResult run_once(const RunConfig& config) {
  obs::Registry& reg = obs::current();
  if (config.obs_trace_capacity > 0) {
    reg.trace().set_capacity(config.obs_trace_capacity);
  }
  sim::Simulator sim;
  sim::Rng root(config.seed);
  sim::Rng plan_rng = root.fork();
  sim::Rng link_rng = root.fork();
  sim::Rng server_rng = root.fork();
  sim::Rng browser_rng = root.fork();
  sim::Rng adversary_rng = root.fork();

  const web::IsideWithSite site = web::build_isidewith_site(config.pad_sensitive_objects);
  web::IsideWithPlan plan = web::build_isidewith_plan(site, plan_rng, config.tuning);

  // --- transport endpoints --------------------------------------------------
  tcp::TcpConfig client_tcp_cfg;
  client_tcp_cfg.local_port = 49'152;
  client_tcp_cfg.remote_port = 443;
  tcp::TcpConfig server_tcp_cfg;
  server_tcp_cfg.local_port = 443;
  server_tcp_cfg.remote_port = 49'152;

  net::Middlebox middlebox(sim);
  std::uint64_t next_packet_id = 0;

  // Links: client -> middlebox -> server and back. The middlebox sits at the
  // gateway, so the client hop is short and the server hop is the WAN.
  net::LinkConfig client_hop;
  client_hop.propagation = config.path.client_hop_delay;
  client_hop.rate = config.path.link_rate;
  client_hop.jitter_sigma = config.path.jitter_sigma;
  client_hop.loss_probability = config.path.background_loss;
  net::LinkConfig server_hop = client_hop;
  server_hop.propagation = config.path.server_hop_delay;
  // The gateway's egress toward the client is the shared, contended hop.
  net::LinkConfig egress_hop = client_hop;
  egress_hop.burst_capacity_packets = config.path.egress_burst_capacity;
  egress_hop.burst_window = config.path.egress_burst_window;
  egress_hop.burst_excess_loss = config.path.egress_burst_loss;

  tcp::Connection client_tcp(sim, client_tcp_cfg, nullptr);  // sink wired below
  tcp::Connection server_tcp(sim, server_tcp_cfg, nullptr);

  net::Link link_c2m(sim, client_hop, link_rng.fork(), [&](net::Packet&& p) {
    middlebox.process(net::Direction::kClientToServer, std::move(p));
  });
  net::Link link_m2s(sim, server_hop, link_rng.fork(), [&](net::Packet&& p) {
    server_tcp.on_wire(p.segment);
  });
  net::Link link_s2m(sim, server_hop, link_rng.fork(), [&](net::Packet&& p) {
    middlebox.process(net::Direction::kServerToClient, std::move(p));
  });
  net::Link link_m2c(sim, egress_hop, link_rng.fork(), [&](net::Packet&& p) {
    client_tcp.on_wire(p.segment);
  });
  middlebox.set_output(net::Direction::kClientToServer,
                       [&](net::Packet&& p) { link_m2s.send(std::move(p)); });
  middlebox.set_output(net::Direction::kServerToClient,
                       [&](net::Packet&& p) { link_m2c.send(std::move(p)); });

  // (segment sinks need the links, which needed the middlebox — wire now)
  // NOTE: tcp::Connection exposes the sink only at construction, so the
  // connections are constructed with null sinks above and rewired here via
  // set_segment_out().
  client_tcp.set_segment_out([&](util::SharedBytes wire) {
    link_c2m.send(net::Packet{++next_packet_id, net::Direction::kClientToServer,
                              std::move(wire)});
  });
  server_tcp.set_segment_out([&](util::SharedBytes wire) {
    link_s2m.send(net::Packet{++next_packet_id, net::Direction::kServerToClient,
                              std::move(wire)});
  });

  // --- TLS + application endpoints ------------------------------------------
  const std::uint64_t session_secret = config.seed * 0x9e3779b97f4a7c15ull + 17;
  tls::Session client_tls(tls::Role::kClient, session_secret, client_tcp);
  tls::Session server_tls(tls::Role::kServer, session_secret, server_tcp);

  // Record quantization (src/defense): the server seals bucket-padded
  // application records; the client must strip the authenticated filler.
  const defense::DefenseConfig& defense_cfg = config.server.defense;
  if (defense_cfg.record_bucket > 0) {
    server_tls.set_send_record_bucket(defense_cfg.record_bucket);
    client_tls.set_recv_record_unpad(true);
  }

  auto truth = std::make_shared<analysis::GroundTruth>();
  server::ServerConfig server_cfg = config.server;
  if (config.push_emblems) {
    std::vector<std::string> emblem_paths;
    for (const web::ObjectId id : site.emblems) {
      emblem_paths.push_back(site.site.object(id).path);
    }
    server_cfg.push_map[site.site.object(site.results_html).path] =
        std::move(emblem_paths);
  }
  server::H2Server server(sim, site.site, server_cfg, server_tls, server_rng.fork(),
                          truth.get());
  client::Browser browser(sim, site.site, plan.plan, config.browser, client_tls,
                          browser_rng.fork());

  if (config.packet_tap) {
    middlebox.add_tap([&config](net::Direction d, const net::Packet& p, util::TimePoint) {
      config.packet_tap(d, p);
    });
  }

  // --- adversary --------------------------------------------------------------
  // Only the observation and CSV exports read monitor.packets(); without
  // them a load keeps no per-packet copy.
  MonitorConfig monitor_config;
  monitor_config.retain_packets =
      config.observations_out != nullptr || !config.trace_export_prefix.empty();
  TrafficMonitor monitor(middlebox, monitor_config);
  std::unique_ptr<capture::TraceWriter> trace_writer;
  if (config.capture.enabled()) {
    std::string trace_path = config.capture.path;
    if (trace_path.empty()) {
      // Corpus mode: concurrent workers may race here; create_directories
      // is idempotent, so whoever wins, everyone proceeds.
      std::filesystem::create_directories(config.capture.corpus_dir);
      trace_path = config.capture.corpus_dir + "/" + capture::trace_filename(config.seed);
    }
    capture::TraceMeta meta;
    meta.seed = config.seed;
    meta.scenario = config.capture.scenario;
    meta.attack_enabled = config.attack_enabled;
    meta.pad_sensitive_objects = config.pad_sensitive_objects;
    meta.push_emblems = config.push_emblems;
    if (config.manual_spacing) meta.manual_spacing_ns = config.manual_spacing->ns;
    if (config.manual_bandwidth) {
      meta.manual_bandwidth_bps = config.manual_bandwidth->bits_per_sec;
    }
    meta.deadline_ns = config.deadline.ns;
    meta.party_order = plan.party_order;
    meta.defense = defense_cfg;
    trace_writer = std::make_unique<capture::TraceWriter>(trace_path, std::move(meta));
    monitor.on_packet_observed = [&](const analysis::PacketObservation& obs) {
      trace_writer->add_packet(obs);
    };
  }
  NetworkController controller(sim, middlebox, adversary_rng.fork());
  Attack attack(sim, monitor, controller, config.attack);
  if (config.attack_enabled) attack.arm();
  if (config.manual_spacing) controller.set_request_spacing(*config.manual_spacing);
  if (config.manual_bandwidth) controller.set_bandwidth(*config.manual_bandwidth);

  // --- go ---------------------------------------------------------------------
  server_tcp.listen();
  client_tcp.connect();
  const std::size_t events_executed =
      sim.run_until(util::TimePoint{} + config.deadline);

  // --- score ------------------------------------------------------------------
  RunResult result;
  result.events_executed = events_executed;
  result.page_complete = browser.stats().page_complete;
  result.broken = browser.stats().broken;
  result.page_load_seconds =
      result.page_complete ? browser.stats().page_complete_time.seconds() : 0.0;
  result.browser_rerequests = browser.stats().rerequests_sent;
  result.reset_episodes = browser.stats().reset_episodes;
  result.rst_streams_sent = browser.stats().rst_streams_sent;
  result.tcp_retransmits =
      client_tcp.stats().total_retransmits() + server_tcp.stats().total_retransmits();
  result.duplicate_server_responses = server.stats().duplicate_requests;
  result.truth = truth;
  result.monitor_packets = monitor.packets_seen();
  result.egress_burst_drops = link_m2c.stats().burst_dropped;
  result.monitor_gets = monitor.get_count();
  result.true_party_order = plan.party_order;

  ObjectPredictor predictor(monitor, isidewith_catalog());
  const util::TimePoint horizon =
      config.attack_enabled && attack.timeline().drops_ended
          ? *attack.timeline().drops_ended
          : util::TimePoint{};

  const auto score_object = [&](web::ObjectId id, const std::string& label) {
    ObjectOutcome o;
    o.object_id = id;
    o.label = label;
    o.true_size = site.site.object(id).size;
    o.primary_dom = truth->object_dom(id);
    if (o.primary_dom.has_value()) {
      // The paper's per-object observable: DoM == 0 means fully serialized.
      reg.sample(obs::Hist::kH2ObjectDomMilli,
                 static_cast<std::uint64_t>(std::llround(*o.primary_dom * 1000.0)));
    }
    o.serialized_primary = o.primary_dom.has_value() && *o.primary_dom == 0.0;
    o.any_serialized_copy = truth->any_serialized_instance(id);
    o.identified = predictor.find(label, horizon).has_value();
    o.attack_success = o.any_serialized_copy && o.identified;
    return o;
  };

  result.html = score_object(site.results_html, html_label());

  for (int pos = 0; pos < web::kPartyCount; ++pos) {
    const int party = plan.party_order[static_cast<std::size_t>(pos)];
    result.emblems_by_position[static_cast<std::size_t>(pos)] =
        score_object(site.emblems[static_cast<std::size_t>(party)], party_label(party));
  }

  result.attack_horizon_seconds = horizon.seconds();
  result.debug_bursts = predictor.bursts_after(horizon);

  // Sequence recovery: last-occurrence-per-party ordering (noise-robust).
  std::vector<std::string> party_labels;
  for (int p = 0; p < web::kPartyCount; ++p) party_labels.push_back(party_label(p));
  for (const Identification& id : predictor.predict_sequence(party_labels, horizon)) {
    result.predicted_sequence.push_back(id.label);
  }
  for (int pos = 0; pos < web::kPartyCount; ++pos) {
    const int party = plan.party_order[static_cast<std::size_t>(pos)];
    const bool position_ok =
        pos < static_cast<int>(result.predicted_sequence.size()) &&
        result.predicted_sequence[static_cast<std::size_t>(pos)] == party_label(party);
    auto& outcome = result.emblems_by_position[static_cast<std::size_t>(pos)];
    outcome.attack_success = outcome.any_serialized_copy && position_ok;
    result.sequence_positions_correct += position_ok ? 1 : 0;
  }
  if (trace_writer) {
    for (const auto dir :
         {net::Direction::kClientToServer, net::Direction::kServerToClient}) {
      for (const analysis::RecordObservation& rec : monitor.records(dir)) {
        trace_writer->add_record(rec);
      }
    }
    trace_writer->meta().attack_horizon_ns = horizon.ns;
    trace_writer->set_ground_truth(*truth);

    const auto to_verdict = [](const ObjectOutcome& o) {
      capture::ObjectVerdict v;
      v.label = o.label;
      v.true_size = o.true_size;
      v.has_dom = o.primary_dom.has_value();
      if (o.primary_dom) v.primary_dom = *o.primary_dom;
      v.serialized_primary = o.serialized_primary;
      v.any_serialized_copy = o.any_serialized_copy;
      v.identified = o.identified;
      v.attack_success = o.attack_success;
      return v;
    };
    capture::TraceSummary summary;
    summary.monitor_packets = result.monitor_packets;
    summary.monitor_gets = result.monitor_gets;
    summary.html = to_verdict(result.html);
    for (std::size_t pos = 0; pos < static_cast<std::size_t>(web::kPartyCount); ++pos) {
      summary.emblems_by_position[pos] = to_verdict(result.emblems_by_position[pos]);
    }
    summary.predicted_sequence = result.predicted_sequence;
    summary.sequence_positions_correct = result.sequence_positions_correct;
    trace_writer->set_summary(summary);
    trace_writer->finish();
  }

  if (config.observations_out != nullptr) {
    RunObservations& out = *config.observations_out;
    out.packets = monitor.packets();
    out.records_c2s = monitor.records(net::Direction::kClientToServer);
    out.records_s2c = monitor.records(net::Direction::kServerToClient);
    out.attack_horizon_ns = horizon.ns;
  }

  reg.add(obs::Counter::kCoreRuns);
  if (result.page_complete) reg.add(obs::Counter::kCorePagesComplete);
  if (result.broken) reg.add(obs::Counter::kCoreBrokenRuns);
  reg.add(obs::Counter::kCoreBrowserRerequests, result.browser_rerequests);
  reg.add(obs::Counter::kCoreResetEpisodes, result.reset_episodes);
  reg.trace().push(sim.now().ns, obs::TraceLayer::kCore, obs::TraceEvent::kRunScored,
                   config.seed, events_executed);

  if (!config.trace_export_prefix.empty()) {
    if (reg.trace().enabled()) {
      std::ofstream obs_csv(config.trace_export_prefix + "_obs_trace.csv");
      obs::write_trace_csv(obs_csv, reg.trace());
      std::ofstream obs_json(config.trace_export_prefix + "_obs_trace.json");
      obs::write_trace_json(obs_json, reg.trace());
    }
    std::ofstream packets(config.trace_export_prefix + "_packets.csv");
    analysis::write_packets_csv(packets, monitor.packets());
    std::ofstream records(config.trace_export_prefix + "_records.csv");
    const auto& c2s = monitor.records(net::Direction::kClientToServer);
    const auto& s2c = monitor.records(net::Direction::kServerToClient);
    std::vector<analysis::RecordObservation> all_records;
    all_records.reserve(c2s.size() + s2c.size());
    all_records.insert(all_records.end(), c2s.begin(), c2s.end());
    all_records.insert(all_records.end(), s2c.begin(), s2c.end());
    analysis::write_records_csv(records, all_records);
    std::ofstream gt(config.trace_export_prefix + "_ground_truth.csv");
    analysis::write_ground_truth_csv(gt, *truth);
  }
  return result;
}

std::vector<RunResult> run_many(const RunConfig& config, int n) {
  return run_many(config, n, Parallelism::from_env());
}

}  // namespace h2priv::core
