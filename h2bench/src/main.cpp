// h2bench measurement driver: runs one workload's fixed op list from a single
// thread (closed loop, one client, core::Parallelism{1} everywhere), checks
// every op's output, and writes the raw per-op samples as one JSON document.
// run.py builds this program, turns the samples into metrics and prints them.
//
//   h2bench --workload attack|defended|corpus|fleet --seed N --ops K
//           --setups R --trace 0|1 --work-dir DIR --out FILE
//
// Untraced (--trace 0): R timed set-ups, then K timed ops. Each op runs under
// its own obs::ScopedRegistry, so the per-op counter deltas are exact. Every
// op and set-up is followed by a timed run of a fixed reference kernel, which
// run.py uses to scale the times to the reference machine's speed.
//
// Traced (--trace 1): the same set-ups, then for each op the untraced op and
// the same op again with spans on. The traced op's counter deltas and verdict
// must equal the untraced ones (tracing may not change the work). After the
// traced op, the harness re-drives the public entry points of layers that
// core::run_once / fleet::run_fleet / corpus::score_corpus call internally,
// with the exact inputs the op produced, under a separate registry so the
// re-drives never leak into the op's counters. Spans are kept in memory and
// written out at exit.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <sys/mman.h>

#include "h2priv/analysis/fingerprint.hpp"
#include "h2priv/capture/replay.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/capture/trace_writer.hpp"
#include "h2priv/core/experiment.hpp"
#include "h2priv/core/parallel_runner.hpp"
#include "h2priv/core/scenario.hpp"
#include "h2priv/corpus/score.hpp"
#include "h2priv/corpus/store.hpp"
#include "h2priv/defense/defense.hpp"
#include "h2priv/fleet/fleet.hpp"
#include "h2priv/obs/export.hpp"
#include "h2priv/obs/metrics.hpp"
#include "h2priv/sim/simulator.hpp"
#include "h2priv/tls/record.hpp"
#include "h2priv/web/isidewith.hpp"

using namespace h2priv;

namespace {

constexpr core::Parallelism kOneJob{1};
constexpr int kWarmLoads = 10;          // attack/defended set-up warm-up loads
constexpr int kCorpusShards = 3;        // corpus set-up: shards generated
constexpr int kCorpusShardTraces = 16;  // traces per shard (one op = one shard)
constexpr int kFleetClients = 16;
constexpr std::size_t kFleetCacheMb = 4;
// Simulated-time cap of one page load. table2's own 45 s cap cuts off about
// one attacked load in 10^4 (a fleet client with 0.09% loss finished at
// 45.37 s), which would turn a slow load into a failed completion check.
// Loads that finish sooner execute exactly the same events under either cap.
constexpr util::Duration kLoadDeadline = util::seconds(120);

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// VmHWM: the peak RSS of this process image. getrusage's ru_maxrss would
/// also carry the RSS of the parent that forked us (it survives execve).
std::uint64_t peak_rss_kib_of_this_image() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

// --- spans -------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    int op;
    std::int64_t t0, t1, c0, c1;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = static_cast<int>(tracer_.spans_.size());
      const int parent = tracer_.stack_.empty() ? -1 : tracer_.stack_.back();
      tracer_.spans_.push_back(Span{name, parent, tracer_.op_, wall_ns(), 0,
                                    thread_cpu_ns(), 0});
      tracer_.stack_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& s = tracer_.spans_[static_cast<std::size_t>(index_)];
      s.c1 = thread_cpu_ns();
      s.t1 = wall_ns();
      tracer_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  void set(bool enabled, int op) {
    enabled_ = enabled;
    op_ = op;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_ = false;
  int op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- host-speed reference ----------------------------------------------------

/// A fixed piece of work that is not the program's: a random read-modify-write
/// walk over 4 MiB, an FNV-1a hash of 64 KiB, a sort of 8192 integers,
/// 15k pop/push rounds on a 512-entry binary heap, and 128 rounds of mapping
/// 64 KiB of fresh pages, touching each page and unmapping it. It is timed
/// right after every op and set-up, so it sees the same host phase as the
/// work it follows; run.py divides by it to cancel the host's speed drift.
/// Page faults are in it because on a shared VM their cost follows host load
/// more closely than plain computation does, and so does the time of the
/// corpus ops (mmap'd traces). The mapped region is small so that it adds at
/// most 64 KiB to the peak RSS, and no memory comes from malloc, so the
/// program's allocator state cannot reach the kernel.
class ReferenceKernel {
 public:
  struct Timing {
    std::int64_t wall_ns = 0;
    std::int64_t cpu_ns = 0;
  };

  ReferenceKernel() : walk_(kWalkWords, 1), block_(kBlockBytes), sorted_(kSortCount) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint8_t& b : block_) b = static_cast<std::uint8_t>(next(x) >> 56);
    unsorted_.resize(kSortCount);
    for (std::uint32_t& v : unsorted_) v = static_cast<std::uint32_t>(next(x) >> 32);
    heap_.resize(kHeapSize);
  }

  Timing run() {
    const std::int64_t c0 = thread_cpu_ns();
    const std::int64_t t0 = wall_ns();
    std::uint64_t x = 88172645463325252ull;
    for (std::uint32_t i = 0; i < kWalkSteps; ++i) {
      std::uint32_t& w = walk_[next(x) & (kWalkWords - 1)];
      w = w * 2654435761u + i;
    }
    std::uint64_t h = 1469598103934665603ull;
    for (int r = 0; r < kHashRounds; ++r) {
      for (const std::uint8_t b : block_) h = (h ^ b) * 1099511628211ull;
    }
    std::copy(unsorted_.begin(), unsorted_.end(), sorted_.begin());
    std::sort(sorted_.begin(), sorted_.end());
    for (std::size_t i = 0; i < kHeapSize; ++i) heap_[i] = next(x) >> 40;
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
    for (int i = 0; i < kHeapRounds; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      heap_.back() += next(x) >> 44;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    for (int r = 0; r < kMapRounds; ++r) {
      void* region = mmap(nullptr, kMapBytes, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (region == MAP_FAILED) throw std::runtime_error("reference kernel: mmap failed");
      auto* bytes = static_cast<std::uint8_t*>(region);
      for (std::size_t i = 0; i < kMapBytes; i += kPageBytes) bytes[i] = 1;
      h += bytes[kPageBytes];
      munmap(region, kMapBytes);
    }
    sink_ += x + h + sorted_[kSortCount / 2] + heap_.front();
    return Timing{wall_ns() - t0, thread_cpu_ns() - c0};
  }

  /// Folded into the output so the compiler cannot drop the work.
  [[nodiscard]] std::uint64_t sink() const noexcept { return sink_; }

 private:
  static constexpr std::uint32_t kWalkWords = 1u << 20;  // 4 MiB
  static constexpr std::uint32_t kWalkSteps = 75'000;
  static constexpr std::size_t kBlockBytes = 1u << 16;
  static constexpr int kHashRounds = 3;
  static constexpr std::size_t kSortCount = 8192;
  static constexpr std::size_t kHeapSize = 512;
  static constexpr int kHeapRounds = 15'000;
  static constexpr int kMapRounds = 128;
  static constexpr std::size_t kMapBytes = 1u << 16;
  static constexpr std::size_t kPageBytes = 4096;

  static std::uint64_t next(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  std::vector<std::uint32_t> walk_;
  std::vector<std::uint8_t> block_;
  std::vector<std::uint32_t> unsorted_;
  std::vector<std::uint32_t> sorted_;
  std::vector<std::uint64_t> heap_;
  std::uint64_t sink_ = 0;
};

// --- per-op samples ----------------------------------------------------------

struct OpOutcome {
  bool ok = true;
  std::string why;
  std::uint64_t recovered = 0;  ///< emblem positions recovered
  std::uint64_t positions = 0;  ///< emblem positions attempted

  void fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
};

/// An op's counter deltas followed by its gauge maxima, in enum order. Kept
/// as a fixed-size array (not a whole obs::Registry) so the samples of a run
/// take a small, op-count-determined amount of memory.
using CounterSnapshot = std::array<std::uint64_t, obs::kCounterCount + obs::kGaugeCount>;

CounterSnapshot snapshot(const obs::Registry& r) {
  CounterSnapshot out{};
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    out[i] = r.get(static_cast<obs::Counter>(i));
  }
  for (std::size_t i = 0; i < obs::kGaugeCount; ++i) {
    out[obs::kCounterCount + i] = r.gauge(static_cast<obs::Gauge>(i));
  }
  return out;
}

struct OpSample {
  int index = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  ReferenceKernel::Timing ref;  ///< the reference kernel, run right after the op
  OpOutcome outcome;
  CounterSnapshot counters{};
};

std::string counters_json(const CounterSnapshot& counters) {
  std::string out = "{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (counters[i] == 0) continue;
    const char* name =
        i < obs::kCounterCount
            ? obs::counter_name(static_cast<obs::Counter>(i))
            : obs::gauge_name(static_cast<obs::Gauge>(i - obs::kCounterCount));
    if (out.size() > 1) out += ",";
    out += json_string(name) + ":" + std::to_string(counters[i]);
  }
  return out + "}";
}

std::string sample_json(const OpSample& s) {
  return "{\"i\":" + std::to_string(s.index) +
         ",\"wall_ns\":" + std::to_string(s.wall_ns) +
         ",\"cpu_ns\":" + std::to_string(s.cpu_ns) +
         ",\"ref_wall_ns\":" + std::to_string(s.ref.wall_ns) +
         ",\"ref_cpu_ns\":" + std::to_string(s.ref.cpu_ns) +
         ",\"ok\":" + (s.outcome.ok ? "true" : "false") +
         ",\"why\":" + json_string(s.outcome.why) +
         ",\"recovered\":" + std::to_string(s.outcome.recovered) +
         ",\"positions\":" + std::to_string(s.outcome.positions) +
         ",\"counters\":" + counters_json(s.counters) + "}";
}

// --- workloads ---------------------------------------------------------------

std::uint64_t op_seed(std::uint64_t seed, std::uint64_t index) {
  return seed * 1'000'003ull + index;
}
// Warm-up loads use the same fixed seeds in every run, so set-up work does not
// depend on --seed; the corpus (a workload input) is generated from --seed.
// Both sit far above any op index.
constexpr std::uint64_t kWarmSeedBase = 900'000;

void score_run(const core::RunResult& r, OpOutcome& out) {
  if (!r.page_complete) out.fail("page load incomplete");
  if (r.broken) out.fail("page load broken");
  for (const core::ObjectOutcome& o : r.emblems_by_position) {
    out.recovered += o.attack_success ? 1 : 0;
    ++out.positions;
  }
}

capture::TraceSummary summary_of(const core::RunResult& r) {
  const auto to_verdict = [](const core::ObjectOutcome& o) {
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
  summary.monitor_packets = r.monitor_packets;
  summary.monitor_gets = r.monitor_gets;
  summary.html = to_verdict(r.html);
  for (std::size_t pos = 0; pos < r.emblems_by_position.size(); ++pos) {
    summary.emblems_by_position[pos] = to_verdict(r.emblems_by_position[pos]);
  }
  summary.predicted_sequence = r.predicted_sequence;
  summary.sequence_positions_correct = r.sequence_positions_correct;
  return summary;
}

class Workload {
 public:
  Workload(std::string name, std::uint64_t seed, std::string work_dir, Tracer& tracer)
      : name_(std::move(name)), seed_(seed), work_dir_(std::move(work_dir)),
        tracer_(tracer), site_(web::build_isidewith_site()) {}

  /// Fixed preparation before the first timed op; idempotent, so it can be
  /// timed several times in one run.
  void setup() {
    Tracer::Scope root(tracer_, "setup");
    std::filesystem::remove_all(work_dir_);
    std::filesystem::create_directories(work_dir_);
    base_ = core::scenario_config("table2");
    base_.deadline = kLoadDeadline;
    if (name_ == "attack" || name_ == "defended") {
      if (name_ == "defended") base_.server.defense = *defense::defense_from_name("full");
      for (int w = 0; w < kWarmLoads; ++w) {
        core::RunConfig cfg = base_;
        cfg.seed = kWarmSeedBase + static_cast<std::uint64_t>(w);
        Tracer::Scope s(tracer_, "core.run_once");
        (void)core::run_once(cfg);
      }
    } else if (name_ == "corpus") {
      core::RunConfig cfg = base_;
      cfg.seed = op_seed(seed_, kWarmSeedBase);
      cfg.capture.corpus_dir = work_dir_ + "/corpus";
      cfg.capture.scenario = "table2";
      {
        Tracer::Scope s(tracer_, "corpus.generate_sharded");
        (void)corpus::generate_sharded(cfg, kCorpusShards * kCorpusShardTraces,
                                       corpus::ShardOptions{kCorpusShardTraces}, kOneJob);
      }
      shards_.clear();
      reference_reports_.clear();
      for (int shard = 0; shard < kCorpusShards; ++shard) {
        {
          Tracer::Scope s(tracer_, "corpus.load_corpus");
          shards_.push_back(corpus::load_corpus(cfg.capture.corpus_dir + "/" +
                                                corpus::shard_name(shard)));
        }
        Tracer::Scope s(tracer_, "corpus.score_corpus");
        reference_reports_.push_back(
            corpus::format_report(corpus::score_corpus(shards_.back(), score_options())));
      }
    } else if (name_ == "fleet") {
      base_.capture.scenario = "table2";
      base_.capture.path = work_dir_ + "/fleet.h2t";
      base_.fleet.clients = kFleetClients;
      base_.fleet.cache_mb = kFleetCacheMb;
      core::RunConfig cfg = base_;
      cfg.seed = kWarmSeedBase;
      Tracer::Scope s(tracer_, "fleet.run_fleet");
      (void)fleet::run_fleet(cfg, kOneJob);
    } else {
      throw std::invalid_argument("unknown workload " + name_);
    }
  }

  /// One op. With `redrive`, the layer re-drives run after the op, under a
  /// registry of their own and inside a "redrive" span.
  OpOutcome op(int index, bool redrive) {
    Tracer::Scope root(tracer_, "op");
    if (name_ == "corpus") return corpus_op(index, redrive);
    if (name_ == "fleet") return fleet_op(index, redrive);
    return load_op(index, redrive);
  }

 private:
  static corpus::ScoreOptions score_options() {
    corpus::ScoreOptions o;
    o.parallelism = kOneJob;
    o.classifier = corpus::Classifier::kKnn;
    o.replay_verify = true;
    return o;
  }

  OpOutcome load_op(int index, bool redrive) {
    core::RunConfig cfg = base_;
    cfg.seed = op_seed(seed_, static_cast<std::uint64_t>(index));
    core::RunObservations observations;
    if (redrive) cfg.observations_out = &observations;
    core::RunResult result;
    {
      Tracer::Scope s(tracer_, "core.run_once");
      result = core::run_once(cfg);
    }
    OpOutcome out;
    score_run(result, out);
    if (redrive) {
      Tracer::Scope s(tracer_, "redrive");
      const std::uint64_t heap_depth = obs::current().gauge(obs::Gauge::kSimHeapDepth);
      obs::ScopedRegistry scratch;
      redrive_run(result, observations, cfg.seed, heap_depth, true, out);
    }
    return out;
  }

  OpOutcome fleet_op(int index, bool redrive) {
    core::RunConfig cfg = base_;
    cfg.seed = op_seed(seed_, static_cast<std::uint64_t>(index));
    fleet::FleetResult result;
    {
      Tracer::Scope s(tracer_, "fleet.run_fleet");
      result = fleet::run_fleet(cfg, kOneJob);
    }
    OpOutcome out;
    if (result.clients.size() != static_cast<std::size_t>(kFleetClients)) {
      out.fail("fleet client count");
    }
    for (const fleet::FleetClientResult& c : result.clients) score_run(c.result, out);
    if (!redrive) return out;

    Tracer::Scope s(tracer_, "redrive");
    const std::uint64_t heap_depth = obs::current().gauge(obs::Gauge::kSimHeapDepth);
    obs::ScopedRegistry scratch;
    {
      Tracer::Scope p(tracer_, "fleet.plan_fleet");
      if (fleet::plan_fleet(cfg).size() != result.clients.size()) out.fail("plan size");
    }
    for (const fleet::FleetClientResult& c : result.clients) {
      redrive_run(c.result, c.obs, c.profile.seed, heap_depth, false, out);
    }
    Tracer::Scope read(tracer_, "capture.read");
    const capture::TraceFile trace = capture::TraceFile::open(cfg.capture.path);
    Tracer::Scope monitor(tracer_, "core.monitor");
    const std::vector<capture::ReplayResult> replays = capture::replay_fleet(trace);
    if (replays.size() != result.clients.size()) out.fail("fleet replay conn count");
    for (const capture::ReplayResult& r : replays) {
      if (!r.records_match || !r.summary_matches) out.fail("fleet replay mismatch");
    }
    return out;
  }

  OpOutcome corpus_op(int index, bool redrive) {
    const auto shard = static_cast<std::size_t>(index % kCorpusShards);
    corpus::ScoreReport report;
    {
      Tracer::Scope s(tracer_, "corpus.score_corpus");
      report = corpus::score_corpus(shards_[shard], score_options());
    }
    std::string text;
    {
      Tracer::Scope s(tracer_, "corpus.format_report");
      text = corpus::format_report(report);
    }
    OpOutcome out;
    if (report.replay_failures != 0) out.fail("replay failures");
    if (report.summary_mismatches != 0) out.fail("summary mismatches");
    if (report.traces.size() != static_cast<std::size_t>(kCorpusShardTraces)) {
      out.fail("shard trace count");
    }
    if (text != reference_reports_[shard]) out.fail("report text differs between visits");
    out.recovered = report.attack_successes;
    out.positions = report.traces.size() * static_cast<std::size_t>(web::kPartyCount);
    if (!redrive) return out;

    Tracer::Scope s(tracer_, "redrive");
    obs::ScopedRegistry scratch;
    {
      Tracer::Scope read(tracer_, "capture.read");
      for (const corpus::TraceScore& ts : report.traces) {
        capture::ManifestEntry entry;
        entry.file = ts.file;
        entry.seed = ts.seed;
        const capture::TraceFile trace =
            capture::TraceFile::open(corpus::trace_path(shards_[shard], entry));
        if (!(capture::score_stored(trace) == ts.summary)) {
          out.fail("score_stored differs");
        }
      }
    }
    Tracer::Scope classify(tracer_, "analysis.classify");
    analysis::Fingerprinter model;
    for (const corpus::TraceScore& ts : report.traces) {
      if (ts.trained) model.train(ts.true_label, ts.profile);
    }
    for (const corpus::TraceScore& ts : report.traces) {
      if (ts.trained || model.trace_count() == 0) continue;
      if (model.classify_knn(ts.profile, score_options().knn_k) != ts.predicted_label) {
        out.fail("classify_knn differs from the report");
      }
    }
    return out;
  }

  /// Re-drives the layers buried in one core::run_once with the inputs that
  /// run produced: TLS sealing/opening of every observed record, object
  /// bodies of every served instance, the simulator's event dispatch for
  /// the run's event count at the op's heap depth, and (optionally) a .h2t
  /// write + replay.
  void redrive_run(const core::RunResult& result,
                   const core::RunObservations& observations, std::uint64_t run_seed,
                   std::uint64_t heap_depth, bool capture_roundtrip, OpOutcome& out) {
    const defense::DefenseConfig& defense_cfg = base_.server.defense;
    const std::uint64_t secret = run_seed * 0x9e3779b97f4a7c15ull + 17;
    static const std::vector<std::uint8_t> plaintext(tls::kMaxPlaintext, 0);
    const std::array<const std::vector<analysis::RecordObservation>*, 2> records = {
        &observations.records_c2s, &observations.records_s2c};

    std::array<std::vector<util::SharedBytes>, 2> sealed;
    {
      Tracer::Scope s(tracer_, "tls.seal");
      for (std::size_t dir = 0; dir < 2; ++dir) {
        tls::SealContext seal(secret, static_cast<std::uint8_t>(dir));
        const bool quantized = dir == 1 && defense_cfg.record_bucket > 0;
        if (quantized) seal.set_pad_bucket(defense_cfg.record_bucket);
        for (const analysis::RecordObservation& rec : *records[dir]) {
          std::size_t len = rec.plaintext_estimate();
          // A quantized record's content already ends in its marker byte.
          if (quantized && rec.type == tls::ContentType::kApplicationData && len > 0) {
            --len;
          }
          len = std::min(len, tls::kMaxPlaintext);
          sealed[dir].push_back(
              seal.seal_shared(rec.type, util::BytesView(plaintext.data(), len)));
        }
      }
    }
    {
      Tracer::Scope s(tracer_, "tls.open");
      for (std::size_t dir = 0; dir < 2; ++dir) {
        tls::OpenContext open(secret, static_cast<std::uint8_t>(dir));
        open.set_unpad(dir == 1 && defense_cfg.record_bucket > 0);
        for (const util::SharedBytes& wire : sealed[dir]) {
          std::size_t consumed = 0;
          (void)open.open_one(wire.view(), consumed);
          if (consumed != wire.size()) out.fail("tls re-drive framing");
        }
      }
    }
    sealed = {};
    {
      Tracer::Scope s(tracer_, "web.body");
      std::uint64_t bytes = 0;
      for (const analysis::ResponseInstance& inst : result.truth->instances()) {
        bytes += site_.site.object(inst.object_id).body().size();
      }
      if (bytes == 0) out.fail("no bodies served");
    }
    {
      Tracer::Scope s(tracer_, "sim.dispatch");
      redrive_simulator(result.events_executed, heap_depth, out);
    }
    if (!capture_roundtrip) return;

    const std::string path = work_dir_ + "/redrive.h2t";
    {
      Tracer::Scope s(tracer_, "capture.write");
      capture::TraceMeta meta;
      meta.seed = run_seed;
      meta.scenario = "table2";
      meta.attack_enabled = base_.attack_enabled;
      meta.deadline_ns = base_.deadline.ns;
      meta.party_order = result.true_party_order;
      meta.defense = defense_cfg;
      meta.attack_horizon_ns = observations.attack_horizon_ns;
      capture::TraceWriter writer(path, std::move(meta));
      for (const analysis::PacketObservation& p : observations.packets) {
        writer.add_packet(p);
      }
      for (const auto* dir_records : records) {
        for (const analysis::RecordObservation& rec : *dir_records) {
          writer.add_record(rec);
        }
      }
      writer.set_ground_truth(*result.truth);
      writer.set_summary(summary_of(result));
      writer.finish();
    }
    Tracer::Scope read(tracer_, "capture.read");
    const capture::TraceFile trace = capture::TraceFile::open(path);
    Tracer::Scope monitor(tracer_, "core.monitor");
    const capture::ReplayResult replayed = capture::replay(trace);
    if (!replayed.records_match || !replayed.summary_matches) out.fail("replay mismatch");
  }

  /// Dispatches exactly `events` no-op events through a fresh Simulator,
  /// keeping `depth` events pending, the deepest the op's own heap got.
  static void redrive_simulator(std::uint64_t events, std::uint64_t depth,
                                OpOutcome& out) {
    sim::Simulator sim;
    const std::uint64_t pending = std::min(std::max<std::uint64_t>(depth, 1), events);
    std::uint64_t reschedules = events - pending;
    std::uint64_t state = 0x243f6a8885a308d3ull;
    std::function<void()> tick = [&] {
      if (reschedules == 0) return;
      --reschedules;
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const util::Duration delay{static_cast<std::int64_t>(state >> 48)};
      sim.schedule(delay, [&] { tick(); });
    };
    for (std::uint64_t i = 0; i < pending; ++i) {
      sim.schedule(util::Duration{static_cast<std::int64_t>(i)}, [&] { tick(); });
    }
    if (sim.run() != events) out.fail("sim re-drive event count");
  }

  std::string name_;
  std::uint64_t seed_;
  std::string work_dir_;
  Tracer& tracer_;
  web::IsideWithSite site_;
  core::RunConfig base_;
  std::vector<corpus::Corpus> shards_;
  std::vector<std::string> reference_reports_;
};

OpSample timed_op(Workload& w, Tracer& tracer, ReferenceKernel& kernel, int index,
                  bool traced) {
  OpSample s;
  s.index = index;
  tracer.set(traced, index);
  obs::ScopedRegistry scope;
  const std::int64_t c0 = thread_cpu_ns();
  const std::int64_t t0 = wall_ns();
  try {
    s.outcome = w.op(index, traced);
  } catch (const std::exception& e) {
    s.outcome.fail(std::string("exception: ") + e.what());
  }
  s.wall_ns = wall_ns() - t0;
  s.cpu_ns = thread_cpu_ns() - c0;
  s.counters = snapshot(scope.registry());
  tracer.set(false, -1);
  s.ref = kernel.run();
  return s;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int ops = 1;
  int setups = 1;
  bool trace = false;
  std::string work_dir;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--ops") a.ops = std::stoi(value);
    else if (key == "--setups") a.setups = std::stoi(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--work-dir") a.work_dir = value;
    else if (key == "--out") a.out = value;
    else throw std::invalid_argument("unknown argument " + std::string(key));
  }
  if (a.workload.empty() || a.work_dir.empty() || a.out.empty() || a.ops < 1 ||
      a.setups < 1) {
    throw std::invalid_argument(
        "need --workload, --work-dir, --out, --ops>=1, --setups>=1");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Tracer tracer;
    ReferenceKernel kernel;
    Workload workload(args.workload, args.seed, args.work_dir, tracer);

    // Each set-up is followed by kSetupRefRuns reference-kernel runs; the
    // median one is the set-up's reference.
    constexpr std::size_t kSetupRefRuns = 5;
    std::vector<double> setup_s;
    std::vector<std::int64_t> setup_ref_ns;
    CounterSnapshot setup_counters{};
    for (int r = 0; r < args.setups; ++r) {
      tracer.set(args.trace, -1);
      obs::ScopedRegistry scope;
      const std::int64_t t0 = wall_ns();
      workload.setup();
      setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
      setup_counters = snapshot(scope.registry());
      tracer.set(false, -1);
      std::array<std::int64_t, kSetupRefRuns> ref{};
      for (std::int64_t& t : ref) t = kernel.run().wall_ns;
      std::nth_element(ref.begin(), ref.begin() + kSetupRefRuns / 2, ref.end());
      setup_ref_ns.push_back(ref[kSetupRefRuns / 2]);
    }

    // Sample storage is reserved up front so it never regrows mid-run.
    std::vector<OpSample> plain;
    std::vector<OpSample> traced;
    plain.reserve(static_cast<std::size_t>(args.ops));
    if (args.trace) traced.reserve(static_cast<std::size_t>(args.ops));
    for (int i = 0; i < args.ops; ++i) {
      plain.push_back(timed_op(workload, tracer, kernel, i, false));
      if (args.trace) traced.push_back(timed_op(workload, tracer, kernel, i, true));
    }

    const std::uint64_t peak_rss_kib = peak_rss_kib_of_this_image();

    std::ofstream os(args.out);
    os << "{\"workload\":" << json_string(args.workload) << ",\"seed\":" << args.seed
       << ",\"peak_rss_kib\":" << peak_rss_kib << ",\"setup_s\":[";
    for (std::size_t i = 0; i < setup_s.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.9f", setup_s[i]);
      os << (i ? "," : "") << buf;
    }
    os << "],\"setup_ref_ns\":[";
    for (std::size_t i = 0; i < setup_ref_ns.size(); ++i) {
      os << (i ? "," : "") << setup_ref_ns[i];
    }
    os << "],\"ref_sink\":" << kernel.sink()
       << ",\"setup_counters\":" << counters_json(setup_counters) << ",\"ops\":[";
    for (std::size_t i = 0; i < plain.size(); ++i) {
      os << (i ? ",\n" : "\n") << sample_json(plain[i]);
    }
    os << "],\"traced_ops\":[";
    for (std::size_t i = 0; i < traced.size(); ++i) {
      os << (i ? ",\n" : "\n") << sample_json(traced[i]);
    }
    os << "],\"spans\":[";
    const std::vector<Tracer::Span>& spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& s = spans[i];
      os << (i ? ",\n" : "\n") << "[" << json_string(s.name) << "," << s.parent << ","
         << s.op << "," << s.t0 << "," << s.t1 << "," << s.c0 << "," << s.c1 << "]";
    }
    os << "]}\n";
    if (!os.flush()) throw std::runtime_error("cannot write " + args.out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "h2bench: %s\n", e.what());
    return 2;
  }
}
