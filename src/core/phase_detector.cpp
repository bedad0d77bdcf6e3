#include "core/phase_detector.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace mhm {

namespace {
constexpr double kLog2Pi = 1.8378770664093453;
}  // namespace

PhaseAwareDetector PhaseAwareDetector::train(const HeatMapTrace& training,
                                             const HeatMapTrace& validation,
                                             const Eigenmemory& reduction,
                                             const Options& options) {
  if (options.phases == 0) {
    throw ConfigError("PhaseAwareDetector: phases must be positive");
  }
  if (training.empty() || validation.empty()) {
    throw ConfigError("PhaseAwareDetector: empty training/validation set");
  }

  for (const HeatMapTrace* trace : {&training, &validation}) {
    for (const auto& map : *trace) {
      if (map.cell_count() != reduction.input_dim()) {
        throw ConfigError(
            "PhaseAwareDetector: map cell count does not match the "
            "reduction's input dimension");
      }
    }
  }

  PhaseAwareDetector det;
  det.pca_ = reduction;
  const std::size_t dim = det.pca_.components();

  // Partition reduced training maps by hyperperiod phase.
  std::vector<std::vector<std::vector<double>>> by_phase(options.phases);
  for (const auto& map : training) {
    by_phase[map.interval_index % options.phases].push_back(
        det.pca_.project(map));
  }

  // Closed-form Gaussian per phase (mean + covariance + Cholesky cache).
  for (std::size_t p = 0; p < options.phases; ++p) {
    const auto& samples = by_phase[p];
    if (samples.size() < 3) {
      throw ConfigError("PhaseAwareDetector: phase " + std::to_string(p) +
                        " has only " + std::to_string(samples.size()) +
                        " training maps; record more hyperperiods");
    }
    PhaseModel model{std::vector<double>(dim, 0.0),
                     linalg::Cholesky(linalg::Matrix::identity(dim)), 0.0};
    for (const auto& x : samples) {
      linalg::axpy(1.0, x, model.mean);
    }
    linalg::scale(model.mean, 1.0 / static_cast<double>(samples.size()));

    linalg::Matrix cov(dim, dim, 0.0);
    for (const auto& x : samples) {
      const auto diff = linalg::subtract(x, model.mean);
      linalg::syr_update(cov, 1.0, diff);
    }
    for (double& v : cov.data()) {
      v /= static_cast<double>(samples.size());
    }
    double scale = cov.max_abs();
    const double floor =
        std::max(options.covariance_floor, 1e-9 * std::max(1.0, scale));
    for (std::size_t i = 0; i < dim; ++i) cov(i, i) += floor;

    auto reg = linalg::cholesky_with_regularization(cov);
    model.log_norm = -0.5 * static_cast<double>(dim) * kLog2Pi -
                     0.5 * reg.factor.log_det();
    model.chol = std::move(reg.factor);
    det.phase_models_.push_back(std::move(model));
  }

  // Calibrate a global threshold on validation scores.
  std::vector<double> scores;
  scores.reserve(validation.size());
  for (const auto& map : validation) scores.push_back(det.score(map));
  det.threshold_ = quantile(scores, options.primary_p);
  return det;
}

double PhaseAwareDetector::score(const std::vector<double>& raw,
                                 std::size_t phase) const {
  MHM_ASSERT(phase < phase_models_.size(),
             "PhaseAwareDetector::score: phase out of range");
  const auto reduced = pca_.project(raw);
  const PhaseModel& model = phase_models_[phase];
  const auto diff = linalg::subtract(reduced, model.mean);
  const double log_density =
      model.log_norm - 0.5 * model.chol.mahalanobis_squared(diff);
  return log_density / std::log(10.0);
}

double PhaseAwareDetector::score(const HeatMap& map) const {
  return score(map.as_vector(), map.interval_index % phase_models_.size());
}

bool PhaseAwareDetector::anomalous(const HeatMap& map) const {
  return score(map) < threshold_;
}

const std::vector<double>& PhaseAwareDetector::phase_mean(
    std::size_t phase) const {
  MHM_ASSERT(phase < phase_models_.size(),
             "PhaseAwareDetector::phase_mean: phase out of range");
  return phase_models_[phase].mean;
}

}  // namespace mhm
