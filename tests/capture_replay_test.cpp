// Capture→replay fidelity: a .h2t trace recorded during a live run must
// reproduce the exact attack verdict offline, the stored summary must match
// the live RunResult, corpus generation must be byte-identical for any
// --jobs value, and the obs export (METRICS_JSON content) must stay
// bit-identical across job counts with capture enabled.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "h2priv/capture/corpus.hpp"
#include "h2priv/capture/replay.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/core/experiment.hpp"
#include "h2priv/core/parallel_runner.hpp"
#include "h2priv/obs/export.hpp"
#include "h2priv/obs/metrics.hpp"
#include "h2priv/util/units.hpp"

namespace h2priv {
namespace {

namespace fs = std::filesystem;

/// The two golden-trace scenarios: fig2 (50 ms spacing sweep point, passive
/// adversary) and table2 (active attack).
core::RunConfig scenario(const std::string& name) {
  core::RunConfig cfg;
  if (name == "fig2") {
    cfg.manual_spacing = util::milliseconds(50);
  } else {
    cfg.attack_enabled = true;
  }
  cfg.capture.scenario = name;
  return cfg;
}

void expect_verdict_matches_outcome(const capture::ObjectVerdict& v,
                                    const core::ObjectOutcome& o,
                                    const std::string& ctx) {
  EXPECT_EQ(v.label, o.label) << ctx;
  EXPECT_EQ(v.true_size, o.true_size) << ctx;
  EXPECT_EQ(v.has_dom, o.primary_dom.has_value()) << ctx;
  if (o.primary_dom) {
    EXPECT_EQ(v.primary_dom, *o.primary_dom) << ctx;
  }
  EXPECT_EQ(v.serialized_primary, o.serialized_primary) << ctx;
  EXPECT_EQ(v.any_serialized_copy, o.any_serialized_copy) << ctx;
  EXPECT_EQ(v.identified, o.identified) << ctx;
  EXPECT_EQ(v.attack_success, o.attack_success) << ctx;
}

TEST(CaptureReplay, VerdictsBitIdenticalToLive) {
  for (const std::string name : {"fig2", "table2"}) {
    for (const std::uint64_t seed : {1000ULL, 1001ULL}) {
      const std::string ctx = name + "/" + std::to_string(seed);
      const std::string path =
          ::testing::TempDir() + "replay_" + name + "_" + std::to_string(seed) +
          ".h2t";
      core::RunConfig cfg = scenario(name);
      cfg.seed = seed;
      cfg.capture.path = path;
      const core::RunResult live = core::run_once(cfg);

      const capture::TraceFile trace = capture::TraceFile::open(path);
      EXPECT_EQ(trace.meta().seed, seed) << ctx;
      EXPECT_EQ(trace.meta().scenario, name) << ctx;
      EXPECT_EQ(trace.packet_count(), live.monitor_packets) << ctx;

      // Stored summary vs the live RunResult it was derived from.
      ASSERT_TRUE(trace.has_section(capture::Section::kSummary)) << ctx;
      const capture::TraceSummary stored = trace.summary();
      EXPECT_EQ(stored.monitor_packets, live.monitor_packets) << ctx;
      EXPECT_EQ(stored.monitor_gets, live.monitor_gets) << ctx;
      expect_verdict_matches_outcome(stored.html, live.html, ctx + " html");
      for (std::size_t i = 0; i < live.emblems_by_position.size(); ++i) {
        expect_verdict_matches_outcome(stored.emblems_by_position[i],
                                       live.emblems_by_position[i],
                                       ctx + " emblem " + std::to_string(i));
      }
      EXPECT_EQ(stored.predicted_sequence, live.predicted_sequence) << ctx;
      EXPECT_EQ(stored.sequence_positions_correct,
                live.sequence_positions_correct) << ctx;

      // Offline replay through the same analysis stack: bit-identical.
      const capture::ReplayResult replayed = capture::replay(trace);
      EXPECT_TRUE(replayed.records_match) << ctx;
      EXPECT_TRUE(replayed.summary_matches) << ctx;
      EXPECT_EQ(replayed.summary, stored) << ctx;
      std::remove(path.c_str());
    }
  }
}

TEST(CaptureReplay, GroundTruthSurvivesTheRoundTrip) {
  const std::string path = ::testing::TempDir() + "replay_truth.h2t";
  core::RunConfig cfg = scenario("table2");
  cfg.seed = 1000;
  cfg.capture.path = path;
  const core::RunResult live = core::run_once(cfg);
  ASSERT_NE(live.truth, nullptr);

  const capture::TraceFile trace = capture::TraceFile::open(path);
  ASSERT_TRUE(trace.has_section(capture::Section::kGroundTruth));
  const analysis::GroundTruth truth = trace.ground_truth();
  const auto& live_inst = live.truth->instances();
  const auto& trace_inst = truth.instances();
  ASSERT_EQ(trace_inst.size(), live_inst.size());
  for (std::size_t i = 0; i < live_inst.size(); ++i) {
    EXPECT_EQ(trace_inst[i].id, live_inst[i].id);
    EXPECT_EQ(trace_inst[i].object_id, live_inst[i].object_id);
    EXPECT_EQ(trace_inst[i].stream_id, live_inst[i].stream_id);
    EXPECT_EQ(trace_inst[i].duplicate, live_inst[i].duplicate);
    EXPECT_EQ(trace_inst[i].complete, live_inst[i].complete);
    ASSERT_EQ(trace_inst[i].data.size(), live_inst[i].data.size());
    for (std::size_t j = 0; j < live_inst[i].data.size(); ++j) {
      EXPECT_EQ(trace_inst[i].data[j].begin, live_inst[i].data[j].begin);
      EXPECT_EQ(trace_inst[i].data[j].end, live_inst[i].data[j].end);
    }
    ASSERT_EQ(trace_inst[i].headers.size(), live_inst[i].headers.size());
    // DoM is a pure function of the intervals; equality above implies it,
    // but assert the headline number directly too.
    EXPECT_EQ(truth.degree_of_multiplexing(trace_inst[i].id),
              live.truth->degree_of_multiplexing(live_inst[i].id));
  }
  std::remove(path.c_str());
}

util::Bytes file_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return util::Bytes{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

TEST(CaptureReplay, CorpusIsByteIdenticalForAnyJobCount) {
  const fs::path base = fs::path(::testing::TempDir()) / "corpus_jobs";
  const fs::path dir1 = base / "j1";
  const fs::path dir4 = base / "j4";
  fs::remove_all(base);

  const int runs = 4;
  for (const auto& [dir, jobs] : {std::pair{dir1, 1}, std::pair{dir4, 4}}) {
    core::RunConfig cfg = scenario("table2");
    cfg.seed = 1000;
    cfg.capture.corpus_dir = dir.string();
    const auto results = core::run_many(cfg, runs, core::Parallelism{jobs});
    ASSERT_EQ(static_cast<int>(results.size()), runs);
  }

  EXPECT_EQ(file_bytes(dir1 / "manifest.txt"), file_bytes(dir4 / "manifest.txt"));
  const capture::Manifest manifest =
      capture::read_manifest((dir1 / "manifest.txt").string());
  ASSERT_EQ(manifest.entries.size(), static_cast<std::size_t>(runs));
  EXPECT_EQ(manifest.scenario, "table2");
  EXPECT_EQ(manifest.base_seed, 1000u);
  for (const capture::ManifestEntry& e : manifest.entries) {
    EXPECT_EQ(file_bytes(dir1 / e.file), file_bytes(dir4 / e.file)) << e.file;
    EXPECT_EQ(capture::digest_file((dir1 / e.file).string()), e.digest) << e.file;
  }
  fs::remove_all(base);
}

void zero_scheduling_dependent(obs::Registry& r) {
  r.set(obs::Counter::kPoolChunksReused, 0);
  r.set(obs::Counter::kPoolChunksFresh, 0);
  r.set(obs::Counter::kPoolChunksOversize, 0);
}

/// Batch with capture on, private registry; returns the deterministic part
/// of the metrics export — the exact METRICS_JSON payload a bench prints.
std::string capture_batch_json(const fs::path& dir, int jobs) {
  obs::ScopedRegistry scoped;
  core::RunConfig cfg = scenario("fig2");
  cfg.seed = 1000;
  cfg.capture.corpus_dir = dir.string();
  const auto results = core::run_many(cfg, 4, core::Parallelism{jobs});
  EXPECT_EQ(results.size(), 4u);
  zero_scheduling_dependent(scoped.registry());
  return obs::to_json(scoped.registry());
}

TEST(CaptureReplay, MetricsJsonBitIdenticalAcrossJobsWithCaptureOn) {
  const fs::path base = fs::path(::testing::TempDir()) / "corpus_metrics";
  fs::remove_all(base);
  const std::string serial = capture_batch_json(base / "j1", 1);
  const std::string threaded = capture_batch_json(base / "j4", 4);
  EXPECT_EQ(serial, threaded);
  // Capture counters must actually be in the export (non-zero, fig2 writes
  // 4 traces), not merely equal-by-absence.
  EXPECT_NE(serial.find("capture.traces_written"), std::string::npos);
  EXPECT_NE(serial.find("capture.bytes_written"), std::string::npos);
  fs::remove_all(base);
}

bool same_record_vec(const std::vector<analysis::RecordObservation>& a,
                     const std::vector<analysis::RecordObservation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].dir != b[i].dir || a[i].type != b[i].type ||
        a[i].ciphertext_len != b[i].ciphertext_len ||
        a[i].stream_offset != b[i].stream_offset) {
      return false;
    }
  }
  return true;
}

TEST(CaptureReplay, ReplayMatchesLiveRunBitForBit) {
  for (const std::string name : {"fig2", "table2"}) {
    const std::string ctx = name;
    const std::string path = ::testing::TempDir() + "replay_live_" + name + ".h2t";
    core::RunConfig cfg = scenario(name);
    cfg.seed = 1000;
    cfg.capture.path = path;
    core::RunObservations live_obs;
    cfg.observations_out = &live_obs;
    const core::RunResult live = core::run_once(cfg);

    // The stored record sections are exactly what the live monitor saw, and
    // records_match says replay's monitor recomputed the stored sections —
    // so replay's records equal the live monitor's, both directions.
    const capture::TraceFile trace = capture::TraceFile::open(path);
    EXPECT_TRUE(same_record_vec(trace.records(net::Direction::kClientToServer),
                                live_obs.records_c2s)) << ctx;
    EXPECT_TRUE(same_record_vec(trace.records(net::Direction::kServerToClient),
                                live_obs.records_s2c)) << ctx;
    const capture::ReplayResult replayed = capture::replay(trace);
    EXPECT_TRUE(replayed.records_match) << ctx;
    EXPECT_TRUE(replayed.summary_matches) << ctx;

    // Packets seen and GETs counted by replay's monitor (packet retention
    // off) equal the live monitor's.
    EXPECT_EQ(replayed.summary.monitor_packets, live.monitor_packets) << ctx;
    EXPECT_EQ(replayed.summary.monitor_packets, live_obs.packets.size()) << ctx;
    EXPECT_EQ(replayed.summary.monitor_gets, live.monitor_gets) << ctx;

    // The records-direct fast path agrees with replay, and both with the
    // live verdict.
    EXPECT_EQ(capture::score_stored(trace), replayed.summary) << ctx;
    EXPECT_EQ(core::count_gets(live_obs.records_c2s), live.monitor_gets) << ctx;
    expect_verdict_matches_outcome(replayed.summary.html, live.html, ctx + " html");
    for (std::size_t i = 0; i < live.emblems_by_position.size(); ++i) {
      expect_verdict_matches_outcome(replayed.summary.emblems_by_position[i],
                                     live.emblems_by_position[i],
                                     ctx + " emblem " + std::to_string(i));
    }
    EXPECT_EQ(replayed.summary.predicted_sequence, live.predicted_sequence) << ctx;
    std::remove(path.c_str());
  }
}

TEST(CaptureReplay, ReplayCountsReadsIntoObs) {
  const std::string path = ::testing::TempDir() + "replay_obs.h2t";
  core::RunConfig cfg = scenario("fig2");
  cfg.seed = 1000;
  cfg.capture.path = path;
  (void)core::run_once(cfg);

  obs::ScopedRegistry scoped;
  const capture::TraceFile trace = capture::TraceFile::open(path);
  (void)capture::replay(trace);
  EXPECT_EQ(scoped.registry().get(obs::Counter::kCaptureTracesRead), 1u);
  EXPECT_EQ(scoped.registry().get(obs::Counter::kCorpusBytesMapped), trace.file_size());
  EXPECT_GT(trace.file_size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace h2priv
