// Experiment harness: one page load of the isidewith model through the full
// stack (browser -> TLS -> TCP -> access link -> compromised middlebox ->
// WAN link -> server), with the adversary optionally armed, and a scored
// RunResult at the end.
//
// All benches and most examples are thin loops over run_once() with
// different RunConfig fields — this is the single place topology lives.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "h2priv/analysis/ground_truth.hpp"
#include "h2priv/analysis/observation.hpp"
#include "h2priv/capture/trace_format.hpp"
#include "h2priv/net/packet.hpp"
#include "h2priv/client/browser.hpp"
#include "h2priv/core/attack.hpp"
#include "h2priv/core/predictor.hpp"
#include "h2priv/server/h2_server.hpp"
#include "h2priv/web/isidewith.hpp"

namespace h2priv::core {

struct PathConfig {
  /// Client <-> middlebox hop (the lab LAN to the gateway).
  util::Duration client_hop_delay{util::milliseconds(2)};
  /// Middlebox <-> server hop (gateway to a CDN-fronted webserver).
  util::Duration server_hop_delay{util::milliseconds(18)};
  util::BitRate link_rate{util::gigabits_per_second(1)};
  /// Background propagation noise per packet.
  util::Duration jitter_sigma{util::microseconds(100)};
  /// Real paths lose the occasional packet; this also gives Table I a
  /// non-zero retransmission baseline to report increases against.
  double background_loss = 0.0004;

  /// Gateway-egress contention (toward the client): bursts above this many
  /// packets per window suffer drop-tail loss. Upstream shaping (the
  /// adversary's bandwidth limit) smooths arrivals under the threshold —
  /// the paper's Fig. 5 mechanism. 0 disables.
  int egress_burst_capacity = 70;       // ~840 Mbps sustained in 1 ms windows
  util::Duration egress_burst_window{util::milliseconds(1)};
  double egress_burst_loss = 0.5;
};

/// Durable trace capture (src/capture): when enabled, run_once records the
/// adversary's observations plus ground truth and the scored verdict into a
/// binary .h2t trace as the run executes.
struct CaptureOptions {
  /// Explicit output path for a single run ("x.h2t").
  std::string path;
  /// Corpus mode: write <corpus_dir>/run_<seed>.h2t instead. run_many also
  /// drops a manifest.txt with per-trace digests beside the traces.
  std::string corpus_dir;
  /// Scenario label stored in the trace metadata (e.g. "fig2", "table2").
  std::string scenario;

  [[nodiscard]] bool enabled() const noexcept {
    return !path.empty() || !corpus_dir.empty();
  }
};

/// Fleet-scale simulation (src/fleet): N concurrent clients with
/// heterogeneous path profiles behind one shared gateway, with an optional
/// caching reverse proxy between gateway and origin. Hung off RunConfig so
/// every entry point (tools, benches, CI) configures a fleet the same way;
/// run_once itself ignores it — fleet::run_fleet is the executor.
struct FleetConfig {
  /// Number of concurrent clients (0 = fleet mode off).
  int clients = 0;
  /// Cache capacity of the reverse-proxy tier in MiB (0 = cache off: every
  /// request pays the full origin miss penalty profile of a lone client).
  std::size_t cache_mb = 0;
  /// Freshness lifetime of a cached object; between ttl and 2*ttl a hit is
  /// served stale-while-revalidate style (kStale outcome).
  util::Duration cache_ttl{util::seconds(30)};
  /// Client page loads start uniformly spread over this window, so the
  /// shared cache sees realistic interleaving instead of a thundering herd.
  util::Duration start_spread{util::milliseconds(500)};
  /// Extra origin latency a cache miss pays at the proxy (a stale
  /// revalidation pays half). Zero with cache_mb == 0.
  util::Duration miss_penalty{util::milliseconds(12)};

  [[nodiscard]] bool enabled() const noexcept { return clients > 0; }
};

/// Raw observation streams of one run and its scored verdict, exported for
/// callers that multiplex several runs into one artifact (the fleet trace
/// merger). Filled by run_once when RunConfig::observations_out points at an
/// instance.
struct RunObservations {
  std::vector<analysis::PacketObservation> packets;
  std::vector<analysis::RecordObservation> records_c2s;
  std::vector<analysis::RecordObservation> records_s2c;
  /// Phase-3 start (client-local ns) the predictor used; 0 when passive.
  std::int64_t attack_horizon_ns = 0;
  /// The run's verdict in stored form (score_verdict's summary).
  capture::TraceSummary summary;
};

struct RunConfig {
  std::uint64_t seed = 1;
  PathConfig path{};
  server::ServerConfig server{};
  client::BrowserConfig browser = client::BrowserConfig::firefox_like();
  web::PlanTuning tuning{};

  /// Full Section V pipeline (phases 1-3).
  bool attack_enabled = false;
  AttackConfig attack{};

  /// Size-obfuscation defense: pad the HTML and emblems to one common size
  /// (defeats the size catalog even under serialization; see defense_eval).
  bool pad_sensitive_objects = false;

  /// Server-push defense (paper §VII): push the 8 emblems in a random
  /// server-chosen order as soon as the results HTML is requested — the
  /// secret display order never appears on the wire.
  bool push_emblems = false;

  /// Raw middlebox programs for the Section IV parameter studies; applied at
  /// t=0 and independent of `attack_enabled`.
  std::optional<util::Duration> manual_spacing;
  std::optional<util::BitRate> manual_bandwidth;

  util::Duration deadline{util::seconds(45)};

  /// When non-empty, write <prefix>_packets.csv, <prefix>_records.csv and
  /// <prefix>_ground_truth.csv at the end of the run (analysis::trace_export).
  /// With obs_trace_capacity > 0, also <prefix>_obs_trace.csv/.json — the
  /// structured per-layer event tail (drops, holds, retransmits, RTO fires).
  std::string trace_export_prefix;

  /// Capacity of the obs::TraceRing armed on the thread-current registry for
  /// this run (0 = tracing stays off). The ring keeps the newest records.
  std::size_t obs_trace_capacity = 0;

  /// Durable .h2t trace capture of this run (off unless a path is set).
  CaptureOptions capture;

  /// Observer for every packet entering the middlebox (both directions, in
  /// arrival order, before any drop decision). Used by the golden-trace
  /// regression tests to hash the exact wire bytes of a seeded run.
  std::function<void(net::Direction, const net::Packet&)> packet_tap;

  /// Fleet-mode parameters; consumed by fleet::run_fleet, inert in run_once.
  FleetConfig fleet{};

  /// When non-null, run_once copies the monitor's packet/record observations
  /// and the attack horizon here (the fleet merger's feed). Orthogonal to
  /// `capture`, which writes a standalone .h2t instead.
  RunObservations* observations_out = nullptr;
};

struct ObjectOutcome {
  web::ObjectId object_id = 0;
  std::string label;
  std::size_t true_size = 0;
  std::optional<double> primary_dom;     ///< degree of multiplexing, first serving
  bool serialized_primary = false;       ///< primary instance DoM == 0
  bool any_serialized_copy = false;      ///< some complete copy DoM == 0
  bool identified = false;               ///< predictor matched it from ciphertext
  bool attack_success = false;           ///< serialized copy + identified
};

struct RunResult {
  bool page_complete = false;
  bool broken = false;
  double page_load_seconds = 0.0;

  // Retransmission accounting (Table I / Fig. 5 metric: client-visible
  // re-request events — browser re-GETs plus TCP-level retransmissions).
  std::uint64_t browser_rerequests = 0;
  std::uint64_t reset_episodes = 0;
  std::uint64_t rst_streams_sent = 0;
  std::uint64_t tcp_retransmits = 0;  // client + server
  std::uint64_t duplicate_server_responses = 0;
  [[nodiscard]] std::uint64_t retransmission_events() const noexcept {
    return browser_rerequests + tcp_retransmits;
  }

  ObjectOutcome html;
  std::array<int, web::kPartyCount> true_party_order{};
  std::array<ObjectOutcome, web::kPartyCount> emblems_by_position{};
  std::vector<std::string> predicted_sequence;  ///< party labels, in time order
  int sequence_positions_correct = 0;

  // Raw materials for specialized analyses.
  std::shared_ptr<analysis::GroundTruth> truth;
  std::uint64_t events_executed = 0;  ///< simulator events this run (perf surface)
  std::uint64_t monitor_packets = 0;
  int monitor_gets = 0;
  std::uint64_t egress_burst_drops = 0;  ///< gateway contention losses
  double attack_horizon_seconds = 0.0;  ///< phase-3 start used by the predictor
  std::vector<analysis::EstimatedObject> debug_bursts;  ///< post-horizon bursts
};

/// Label used for the results HTML in catalogs and predictions.
[[nodiscard]] std::string html_label();
/// Label for a party's emblem (0-based party index).
[[nodiscard]] std::string party_label(int party);

/// The adversary's pre-compiled catalog for the isidewith model.
[[nodiscard]] analysis::SizeCatalog isidewith_catalog();

/// One page load's attack verdict in stored form, plus the post-horizon
/// bursts the predictor read it from.
struct Verdict {
  capture::TraceSummary summary;
  std::vector<analysis::EstimatedObject> bursts;
};

/// The one verdict scorer; live runs, fleet clients, replay and corpus
/// scoring all call it. Segments the server->client records once, matches
/// the post-horizon bursts against isidewith_catalog() once, and judges the
/// results HTML and every emblem position (party_order[pos] is the party
/// shown at pos). An attack succeeds on the HTML when some copy of it was
/// served serialized (DoM 0) and a burst matched its size; on an emblem
/// position when some copy was served serialized and the recovered sequence
/// puts the right party there. Samples each object's DoM into
/// h2.object_dom_milli. The GET count is count_gets over `records_c2s`;
/// `packets` is stored as the monitor's packet count.
[[nodiscard]] Verdict score_verdict(
    const web::IsideWithSite& site, const std::array<int, web::kPartyCount>& party_order,
    util::TimePoint horizon, const analysis::GroundTruth& truth,
    std::span<const analysis::RecordObservation> records_c2s,
    std::span<const analysis::RecordObservation> records_s2c, std::uint64_t packets);

/// The .h2t metadata of a run under `config`; party order and attack
/// horizon stay zero for the caller that knows them.
[[nodiscard]] capture::TraceMeta trace_meta(const RunConfig& config);

/// Executes one seeded page load and scores it.
[[nodiscard]] RunResult run_once(const RunConfig& config);

/// Convenience: run `n` seeds {base_seed .. base_seed+n-1}. Honors the
/// H2PRIV_JOBS environment variable (defaults to all hardware threads; the
/// results are bit-identical for any job count). For an explicit job count
/// see run_many(config, n, Parallelism) in parallel_runner.hpp.
[[nodiscard]] std::vector<RunResult> run_many(const RunConfig& config, int n);

}  // namespace h2priv::core
