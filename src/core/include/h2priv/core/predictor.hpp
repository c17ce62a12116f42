// ObjectPredictor — the adversary's Python scripts (Section V component (c)).
//
// Works purely on TrafficMonitor output: segments the serialized phase of
// the server->client record stream into object bursts and matches each
// burst's size estimate against the pre-compiled size->identity catalog
// ("image size to political party mapping").
#pragma once

#include <span>
#include <string>
#include <vector>

#include "h2priv/analysis/estimator.hpp"

namespace h2priv::core {

struct Identification {
  std::string label;
  std::size_t body_estimate = 0;
  util::TimePoint when{};
};

class ObjectPredictor {
 public:
  /// Segments a finished server->client record sequence (a monitor's after
  /// the run, or a stored .h2t section) into bursts, once; the predictor
  /// keeps no reference to `s2c_records`.
  ObjectPredictor(std::span<const analysis::RecordObservation> s2c_records,
                  analysis::SizeCatalog catalog,
                  const analysis::BurstConfig& burst_config = {});

  /// Raw bursts starting at/after `from`, in order.
  [[nodiscard]] std::vector<analysis::EstimatedObject> bursts_after(
      util::TimePoint from) const;

  /// All catalog matches among `bursts`, in order.
  [[nodiscard]] std::vector<Identification> identify(
      std::span<const analysis::EstimatedObject> bursts) const;

 private:
  analysis::SizeCatalog catalog_;
  std::vector<analysis::EstimatedObject> bursts_;
};

/// Sequence recovery robust to stale-retransmission noise: for each catalog
/// label in `labels`, take its LAST match in `ids` (the real serialized
/// serving comes after any leftover retransmission bursts of the drop phase,
/// which the adversary cannot distinguish — Section IV-D), then order labels
/// by that time.
[[nodiscard]] std::vector<Identification> predict_sequence(
    std::span<const Identification> ids, std::span<const std::string> labels);

}  // namespace h2priv::core
