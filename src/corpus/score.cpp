#include "h2priv/corpus/score.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <numeric>
#include <sstream>

#include "h2priv/capture/replay.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/core/experiment.hpp"
#include "h2priv/obs/metrics.hpp"

namespace h2priv::corpus {

const char* classifier_name(Classifier classifier) noexcept {
  switch (classifier) {
    case Classifier::kNone: return "none";
    case Classifier::kNearest: return "nearest";
    case Classifier::kKnn: return "knn";
    case Classifier::kCentroid: return "centroid";
  }
  return "none";
}

std::optional<Classifier> classifier_from_name(std::string_view name) noexcept {
  if (name == "none") return Classifier::kNone;
  if (name == "nearest") return Classifier::kNearest;
  if (name == "knn") return Classifier::kKnn;
  if (name == "centroid") return Classifier::kCentroid;
  return std::nullopt;
}

std::optional<unsigned> features_from_names(std::string_view names) noexcept {
  unsigned mask = 0;
  while (!names.empty()) {
    const std::size_t comma = names.find(',');
    const std::string_view name = names.substr(0, comma);
    if (name == "bursts") {
      mask |= analysis::kFeatureBursts;
    } else if (name == "gaps") {
      mask |= analysis::kFeatureGapHist;
    } else if (name == "records") {
      mask |= analysis::kFeatureRecordHist;
    } else {
      return std::nullopt;
    }
    if (comma == std::string_view::npos) break;
    names.remove_prefix(comma + 1);
  }
  return mask == 0 ? std::nullopt : std::optional<unsigned>{mask};
}

std::string feature_names(unsigned features) {
  std::string out;
  const auto add = [&](const char* name) {
    if (!out.empty()) out += ',';
    out += name;
  };
  if ((features & analysis::kFeatureBursts) != 0) add("bursts");
  if ((features & analysis::kFeatureGapHist) != 0) add("gaps");
  if ((features & analysis::kFeatureRecordHist) != 0) add("records");
  if (out.empty()) out = "none";
  return out;
}

namespace {

/// Phase A, fleet flavour: demultiplex the trace through its kConnIds
/// columns once and score every connection records-direct, exactly like the
/// single-connection fast path runs over a whole trace; replay-verify walks
/// the same demuxed connections. The per-connection summaries stored in
/// kFleet are the fidelity cross-check; the trace-level summary keeps only
/// corpus-fold aggregates. Fleet traces never enter the classifier split.
TraceScore score_fleet(const capture::TraceFile& trace,
                       const capture::ManifestEntry& entry,
                       const ScoreOptions& options) {
  TraceScore ts;
  ts.seed = entry.seed;
  ts.file = entry.file;
  ts.file_bytes = trace.file_size();
  ts.fleet = true;
  ts.had_stored_summary = true;  // every kFleet entry carries its summary
  ts.matches_stored_summary = true;
  ts.summary.monitor_packets = trace.packet_count();

  const std::vector<capture::DemuxedConn> conns = capture::demux_fleet(trace);
  const web::IsideWithSite site =
      web::build_isidewith_site(trace.meta().pad_sensitive_objects);
  ts.replay_verified = options.replay_verify;
  ts.conns.reserve(conns.size());
  for (const capture::DemuxedConn& conn : conns) {
    ConnScore cs;
    cs.seed = conn.info.client_seed;
    cs.summary = capture::score_conn(conn, site).summary;
    cs.matches_stored_summary = conn.summary == cs.summary;
    ts.matches_stored_summary &= cs.matches_stored_summary;
    ts.summary.monitor_gets += cs.summary.monitor_gets;
    ts.summary.sequence_positions_correct +=
        cs.summary.sequence_positions_correct;
    if (options.replay_verify) {
      const capture::ReplayResult r = capture::replay(conn, site);
      ts.replay_verified &=
          r.records_match && r.summary_matches && r.summary == cs.summary;
    }
    ts.conns.push_back(std::move(cs));
  }
  obs::count(obs::Counter::kCorpusTracesScored);
  return ts;
}

/// Phase A: score one manifest entry off its mmap'd trace. Each section is
/// decoded once; replay-verify reuses the decode and walks only the packets.
/// Everything here is a pure function of the trace bytes — safe to run on
/// any worker.
TraceScore score_one(const Corpus& corpus, const capture::ManifestEntry& entry,
                     const ScoreOptions& options) {
  const capture::TraceFile trace =
      capture::TraceFile::open(trace_path(corpus, entry));
  if (trace.meta().fleet) return score_fleet(trace, entry, options);
  TraceScore ts;
  ts.seed = entry.seed;
  ts.file = entry.file;
  ts.file_bytes = trace.file_size();

  const capture::StoredConn conn = capture::decode_conn(trace);
  const web::IsideWithSite site =
      web::build_isidewith_site(conn.meta.pad_sensitive_objects);
  core::Verdict verdict = capture::score_conn(conn, site);
  ts.summary = std::move(verdict.summary);
  ts.profile =
      analysis::build_feature_profile(options.features, verdict.bursts, conn.records_s2c);
  ts.true_label = core::party_label(conn.meta.party_order[0]);

  if (conn.summary.has_value()) {
    ts.had_stored_summary = true;
    ts.matches_stored_summary = *conn.summary == ts.summary;
  }
  if (options.replay_verify) {
    const capture::ReplayResult r = capture::replay(trace, conn, site);
    ts.replay_verified =
        r.records_match && (!ts.had_stored_summary || r.summary_matches) &&
        r.summary == ts.summary;
  }
  obs::count(obs::Counter::kCorpusTracesScored);
  return ts;
}

/// Phase B: train the selected classifier on the training split and label
/// the eval split. Serial and in seed order throughout, so model contents
/// and verdicts never depend on worker interleaving.
void classify_split(std::vector<TraceScore>& traces, const ScoreOptions& options) {
  if (options.classifier == Classifier::kNone || options.train_mod == 0) return;

  analysis::Fingerprinter nearest;
  analysis::CentroidModel centroid;
  for (TraceScore& ts : traces) {
    if (ts.fleet) continue;  // N clients' bursts, no single label
    ts.trained = ts.seed % options.train_mod == 0;
    if (!ts.trained) continue;
    obs::count(obs::Counter::kScoreTrainTraces);
    if (options.classifier == Classifier::kCentroid) {
      centroid.train(ts.true_label, ts.profile);
    } else {
      nearest.train(ts.true_label, ts.profile);
    }
  }
  const bool untrained = options.classifier == Classifier::kCentroid
                             ? centroid.label_count() == 0
                             : nearest.trace_count() == 0;
  if (untrained) return;

  for (TraceScore& ts : traces) {
    if (ts.fleet || ts.trained) continue;
    obs::count(obs::Counter::kScoreEvalTraces);
    obs::count(obs::Counter::kScoreClassifications);
    switch (options.classifier) {
      case Classifier::kNone:
        break;
      case Classifier::kNearest: {
        const auto v = nearest.classify_with_margin(ts.profile);
        ts.predicted_label = v.label;
        ts.confidence = v.runner_up_distance - v.best_distance;
        ts.confidence_tie = -v.best_distance;
        break;
      }
      case Classifier::kKnn: {
        const auto v = nearest.classify_knn_with_votes(ts.profile, options.knn_k);
        ts.predicted_label = v.label;
        ts.confidence =
            static_cast<double>(v.votes) / static_cast<double>(v.k);
        ts.confidence_tie = -v.total_distance;
        break;
      }
      case Classifier::kCentroid: {
        const auto v = centroid.classify_with_margin(ts.profile);
        ts.predicted_label = v.label;
        ts.confidence = v.runner_up_distance - v.best_distance;
        ts.confidence_tie = -v.best_distance;
        break;
      }
    }
    // A single trained label yields an infinite margin; clamp so the curve
    // sort never compares inf - inf.
    if (!(ts.confidence <= std::numeric_limits<double>::max())) {
      ts.confidence = std::numeric_limits<double>::max();
    }
    ts.correct = !ts.predicted_label.empty() && ts.predicted_label == ts.true_label;
  }
}

/// Confidence-ranked prefix counts over the eval split: point k covers the
/// k most confident verdicts. Integer counts only — precision/recall/TPR/FPR
/// are derived at format time.
std::vector<CurvePoint> build_curve(const std::vector<TraceScore>& traces) {
  std::vector<const TraceScore*> eval;
  for (const TraceScore& ts : traces) {
    if (!ts.trained && !ts.predicted_label.empty()) eval.push_back(&ts);
  }
  std::sort(eval.begin(), eval.end(), [](const TraceScore* a, const TraceScore* b) {
    if (a->confidence != b->confidence) return a->confidence > b->confidence;
    if (a->confidence_tie != b->confidence_tie) {
      return a->confidence_tie > b->confidence_tie;
    }
    return a->seed < b->seed;
  });
  std::vector<CurvePoint> curve;
  curve.reserve(eval.size());
  CurvePoint point;
  for (const TraceScore* ts : eval) {
    ++point.accepted;
    if (ts->correct) {
      ++point.true_positive;
    } else {
      ++point.false_positive;
    }
    curve.push_back(point);
    obs::count(obs::Counter::kScoreCurvePoints);
  }
  return curve;
}

}  // namespace

ScoreReport score_corpus(const Corpus& corpus, const ScoreOptions& options) {
  ScoreReport report;
  report.scenario = corpus.manifest.scenario;
  report.base_seed = corpus.manifest.base_seed;
  report.classifier = options.classifier;
  report.features = options.features;
  report.knn_k = options.knn_k;
  report.train_mod = options.train_mod;

  const int n = static_cast<int>(corpus.manifest.entries.size());
  report.traces.resize(static_cast<std::size_t>(n));
  // Phase A: one slot per manifest index, so worker interleaving cannot
  // reorder the output; parallel_for folds per-worker metrics commutatively.
  core::parallel_for(n, options.parallelism, [&](int i) {
    const auto at = static_cast<std::size_t>(i);
    report.traces[at] = score_one(corpus, corpus.manifest.entries[at], options);
  });

  classify_split(report.traces, options);
  report.curve = build_curve(report.traces);

  for (const TraceScore& ts : report.traces) {
    report.total_file_bytes += ts.file_bytes;
    report.total_packets += ts.summary.monitor_packets;
    report.total_gets += ts.summary.monitor_gets;
    report.sequence_positions_correct += ts.summary.sequence_positions_correct;
    if (ts.fleet) {
      // Per-connection verdicts fold one unit per client, so a fleet trace
      // counts like N single-connection traces in the corpus totals.
      for (const ConnScore& cs : ts.conns) {
        report.html_identified += cs.summary.html.identified ? 1 : 0;
        for (const capture::ObjectVerdict& v : cs.summary.emblems_by_position) {
          report.attack_successes += v.attack_success ? 1 : 0;
        }
        ++report.stored_summaries;
        if (!cs.matches_stored_summary) ++report.summary_mismatches;
      }
    } else {
      report.html_identified += ts.summary.html.identified ? 1 : 0;
      for (const capture::ObjectVerdict& v : ts.summary.emblems_by_position) {
        report.attack_successes += v.attack_success ? 1 : 0;
      }
      report.stored_summaries += ts.had_stored_summary ? 1 : 0;
      if (ts.had_stored_summary && !ts.matches_stored_summary) {
        ++report.summary_mismatches;
      }
    }
    if (options.replay_verify && !ts.replay_verified) ++report.replay_failures;
    report.train_count += ts.trained ? 1 : 0;
    if (!ts.trained && !ts.predicted_label.empty()) {
      ++report.eval_count;
      report.eval_correct += ts.correct ? 1 : 0;
    }
  }
  return report;
}

namespace {

/// Exact decimal rendering of a ratio of integer counts (0 when the
/// denominator is 0); shortest round-trip digits keep the text stable
/// across platforms.
std::string ratio(std::uint64_t num, std::uint64_t den) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10)
     << (den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den));
  return os.str();
}

}  // namespace

std::string format_report(const ScoreReport& report) {
  std::ostringstream os;
  os << "h2t-score-report v1\n";
  os << "scenario " << report.scenario << "\n";
  os << "base_seed " << report.base_seed << "\n";
  os << "traces " << report.traces.size() << "\n";
  os << "classifier " << classifier_name(report.classifier);
  if (report.classifier == Classifier::kKnn) os << " k=" << report.knn_k;
  os << " train_mod=" << report.train_mod << "\n";
  os << "features " << feature_names(report.features) << "\n";
  os << "total_file_bytes " << report.total_file_bytes << "\n";
  os << "total_packets " << report.total_packets << "\n";
  os << "total_gets " << report.total_gets << "\n";
  os << "html_identified " << report.html_identified << "\n";
  os << "attack_successes " << report.attack_successes << "\n";
  os << "sequence_positions_correct " << report.sequence_positions_correct << "\n";
  os << "stored_summaries " << report.stored_summaries << " mismatches "
     << report.summary_mismatches << "\n";
  os << "replay_failures " << report.replay_failures << "\n";
  os << "split train " << report.train_count << " eval " << report.eval_count
     << " correct " << report.eval_correct << " accuracy "
     << ratio(report.eval_correct, report.eval_count) << "\n";

  for (const TraceScore& ts : report.traces) {
    os << "trace " << ts.seed << ' ' << ts.file << ' '
       << (ts.had_stored_summary
               ? (ts.matches_stored_summary ? "summary=ok" : "summary=MISMATCH")
               : "summary=absent")
       << " packets=" << ts.summary.monitor_packets
       << " gets=" << ts.summary.monitor_gets
       << " seq_correct=" << ts.summary.sequence_positions_correct;
    if (ts.fleet) os << " fleet=" << ts.conns.size();
    if (ts.trained) {
      os << " split=train";
    } else if (!ts.predicted_label.empty()) {
      os << " split=eval true=" << ts.true_label
         << " predicted=" << ts.predicted_label
         << (ts.correct ? " correct" : " wrong");
    }
    os << "\n";
    // Fleet traces: one verdict line per demultiplexed connection, in
    // connection-id order (absent for single-connection traces, so existing
    // corpora format byte-identically).
    for (std::size_t k = 0; k < ts.conns.size(); ++k) {
      const ConnScore& cs = ts.conns[k];
      std::int64_t emblem_successes = 0;
      for (const capture::ObjectVerdict& v : cs.summary.emblems_by_position) {
        emblem_successes += v.attack_success ? 1 : 0;
      }
      os << "  conn " << k << " seed " << cs.seed
         << " html=" << (cs.summary.html.identified ? "yes" : "no")
         << " emblems=" << emblem_successes << '/'
         << cs.summary.emblems_by_position.size()
         << " seq=" << cs.summary.sequence_positions_correct << '/'
         << cs.summary.emblems_by_position.size()
         << (cs.matches_stored_summary ? " summary=ok" : " summary=MISMATCH")
         << "\n";
    }
  }

  // ROC / precision-recall, derived per point from the integer counts. The
  // positive class is "classifier verdict is correct": TPR/recall rank
  // against all correct verdicts, FPR against all wrong ones.
  const std::uint64_t positives = report.eval_correct;
  const std::uint64_t negatives = report.eval_count - report.eval_correct;
  for (const CurvePoint& p : report.curve) {
    os << "curve accepted=" << p.accepted << " tp=" << p.true_positive
       << " fp=" << p.false_positive
       << " precision=" << ratio(p.true_positive, p.accepted)
       << " recall=" << ratio(p.true_positive, positives)
       << " fpr=" << ratio(p.false_positive, negatives) << "\n";
  }
  return os.str();
}

}  // namespace h2priv::corpus
