#include "h2priv/core/predictor.hpp"

#include <algorithm>

namespace h2priv::core {

ObjectPredictor::ObjectPredictor(
    std::span<const analysis::RecordObservation> s2c_records,
    analysis::SizeCatalog catalog, const analysis::BurstConfig& burst_config)
    : catalog_(std::move(catalog)),
      bursts_(analysis::segment_bursts(s2c_records, burst_config)) {}

std::vector<analysis::EstimatedObject> ObjectPredictor::bursts_after(
    util::TimePoint from) const {
  std::vector<analysis::EstimatedObject> out;
  for (const auto& b : bursts_) {
    if (b.first_record >= from) out.push_back(b);
  }
  return out;
}

std::vector<Identification> ObjectPredictor::identify(
    std::span<const analysis::EstimatedObject> bursts) const {
  std::vector<Identification> out;
  for (const analysis::EstimatedObject& b : bursts) {
    if (const auto entry = catalog_.match(b.body_estimate)) {
      out.push_back(Identification{entry->label, b.body_estimate, b.first_record});
    }
  }
  return out;
}

std::vector<Identification> predict_sequence(std::span<const Identification> ids,
                                             std::span<const std::string> labels) {
  std::vector<Identification> last;
  for (const Identification& id : ids) {
    const auto wanted = std::find(labels.begin(), labels.end(), id.label);
    if (wanted == labels.end()) continue;
    const auto seen = std::find_if(last.begin(), last.end(),
                                   [&](const Identification& e) {
      return e.label == id.label;
    });
    if (seen == last.end()) {
      last.push_back(id);
    } else {
      *seen = id;  // keep the latest occurrence
    }
  }
  std::sort(last.begin(), last.end(),
            [](const Identification& a, const Identification& b) {
    return a.when < b.when;
  });
  return last;
}

}  // namespace h2priv::core
