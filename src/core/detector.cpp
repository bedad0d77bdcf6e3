#include "core/detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "linalg/vector_ops.hpp"

namespace mhm {

AnomalyDetector AnomalyDetector::train(
    const std::vector<std::vector<double>>& training,
    const std::vector<std::vector<double>>& validation,
    const Options& options) {
  if (training.empty()) {
    throw ConfigError("AnomalyDetector::train: empty training set");
  }
  if (validation.empty()) {
    throw ConfigError("AnomalyDetector::train: empty validation set");
  }
  // A fixed L' trains through fit_topk, the routine retraining uses too;
  // only the variance-target mode (components == 0) needs the full spectrum.
  Eigenmemory pca = options.pca.components > 0
                        ? Eigenmemory::fit_topk(
                              training, {.components = options.pca.components})
                        : Eigenmemory::fit(training, options.pca);
  const auto reduced = pca.project_all(training);
  Gmm gmm = Gmm::fit(reduced, options.gmm);

  // Single-pass calibration scoring: one parallel projection, one parallel
  // density sweep that keeps the per-sample scores (Gmm::total_log_likelihood
  // would otherwise be re-run by anyone wanting the total). The same vector
  // seeds θ_p and the model-health training baseline.
  const auto reduced_valid = pca.project_all(validation);
  std::vector<double> ln_scores;
  gmm.total_log_likelihood(reduced_valid, &ln_scores);
  std::vector<double> validation_scores(ln_scores.size());
  for (std::size_t i = 0; i < ln_scores.size(); ++i) {
    validation_scores[i] = ln_scores[i] / kLn10;
  }

  // Per-cell baseline of the raw training maps: alarms are explained in the
  // journal by the cells deviating most (in z) from this baseline.
  const std::size_t l = training.front().size();
  auto baseline = std::make_shared<CellBaseline>();
  baseline->mean.assign(l, 0.0);
  baseline->stddev.assign(l, 0.0);
  for (const auto& x : training) {
    for (std::size_t i = 0; i < l; ++i) baseline->mean[i] += x[i];
  }
  const double inv_n = 1.0 / static_cast<double>(training.size());
  for (double& m : baseline->mean) m *= inv_n;
  for (const auto& x : training) {
    for (std::size_t i = 0; i < l; ++i) {
      const double d = x[i] - baseline->mean[i];
      baseline->stddev[i] += d * d;
    }
  }
  for (double& s : baseline->stddev) s = std::sqrt(s * inv_n);

  return AnomalyDetector(ModelSnapshot::assemble(
      std::move(pca), std::move(gmm),
      ThresholdCalibrator(std::move(validation_scores)), options.primary_p,
      std::move(baseline)));
}

AnomalyDetector AnomalyDetector::train(const HeatMapTrace& training,
                                       const HeatMapTrace& validation,
                                       const Options& options) {
  std::vector<std::vector<double>> train_raw;
  train_raw.reserve(training.size());
  for (const auto& m : training) train_raw.push_back(m.as_vector());
  std::vector<std::vector<double>> valid_raw;
  valid_raw.reserve(validation.size());
  for (const auto& m : validation) valid_raw.push_back(m.as_vector());
  return train(train_raw, valid_raw, options);
}

TrafficVolumeDetector::TrafficVolumeDetector(
    const std::vector<double>& normal_volumes, double p, double margin) {
  if (normal_volumes.empty()) {
    throw ConfigError("TrafficVolumeDetector: empty calibration set");
  }
  if (p <= 0.0 || p >= 0.5) {
    throw ConfigError("TrafficVolumeDetector: p must be in (0, 0.5)");
  }
  const double q_lo = quantile(normal_volumes, p);
  const double q_hi = quantile(normal_volumes, 1.0 - p);
  const double iqr = quantile(normal_volumes, 0.75) -
                     quantile(normal_volumes, 0.25);
  lower_ = q_lo - margin * iqr;
  upper_ = q_hi + margin * iqr;
}

TrafficVolumeDetector TrafficVolumeDetector::from_trace(
    const HeatMapTrace& normal, double p, double margin) {
  std::vector<double> volumes;
  volumes.reserve(normal.size());
  for (const auto& m : normal) {
    volumes.push_back(static_cast<double>(m.total_accesses()));
  }
  return TrafficVolumeDetector(volumes, p, margin);
}

bool TrafficVolumeDetector::anomalous(double volume) const {
  return volume < lower_ || volume > upper_;
}

bool TrafficVolumeDetector::anomalous(const HeatMap& map) const {
  return anomalous(static_cast<double>(map.total_accesses()));
}

NearestNeighborDetector::NearestNeighborDetector(
    std::vector<std::vector<double>> training,
    const std::vector<std::vector<double>>& validation, double p)
    : training_(std::move(training)) {
  if (training_.empty()) {
    throw ConfigError("NearestNeighborDetector: empty training set");
  }
  if (validation.empty()) {
    throw ConfigError("NearestNeighborDetector: empty validation set");
  }
  std::vector<double> distances;
  distances.reserve(validation.size());
  for (const auto& v : validation) distances.push_back(nearest_distance(v));
  // Large distance = anomalous, so the threshold sits at the (1-p) quantile.
  threshold_ = quantile(distances, 1.0 - p);
}

double NearestNeighborDetector::nearest_distance(
    const std::vector<double>& x) const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& t : training_) {
    best = std::min(best, linalg::squared_distance(x, t));
  }
  return std::sqrt(best);
}

bool NearestNeighborDetector::anomalous(const std::vector<double>& x) const {
  return nearest_distance(x) > threshold_;
}

std::size_t NearestNeighborDetector::storage_bytes() const {
  return training_.size() *
         (training_.empty() ? 0 : training_.front().size()) * sizeof(double);
}

}  // namespace mhm
