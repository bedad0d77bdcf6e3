#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/heatmap.hpp"
#include "core/pca.hpp"
#include "linalg/cholesky.hpp"

namespace mhm {

/// Phase-conditioned anomaly detector (extension).
///
/// The paper's GMM must *rediscover* the workload's interval phases as
/// mixture components (§4.3's intuition: each pattern corresponds to a
/// combination of activities — in a periodic system, essentially a
/// hyperperiod phase). But in a real-time system the phase of every
/// monitoring interval is known exactly: interval_index mod (hyperperiod /
/// interval). Conditioning on it replaces the J-component mixture with one
/// Gaussian per phase, which
///   * removes the EM local-optimum lottery (closed-form fit),
///   * sharpens the density (no mass wasted on other phases' patterns),
///   * catches "wrong pattern for this phase" anomalies that a pooled
///     mixture scores as normal because the pattern exists *somewhere*.
/// The cost: it needs the phase count and a phase-stable interval clock
/// (both available by construction in the paper's setting).
class PhaseAwareDetector {
 public:
  struct Options {
    std::size_t phases = 10;        ///< Hyperperiod / monitoring interval.
    double covariance_floor = 1e-9; ///< Diagonal regularization.
    double primary_p = 0.01;        ///< Threshold quantile (θ_1).
  };

  /// Fit the per-phase Gaussians on normal maps (interval_index must be
  /// meaningful) reduced by `reduction` — the eigenmemory of a trained
  /// AnomalyDetector, shared rather than refitted — and calibrate the
  /// threshold on `validation`. Throws ConfigError if a map's cell count
  /// differs from the reduction's input dimension or any phase has fewer
  /// than 3 training maps.
  static PhaseAwareDetector train(const HeatMapTrace& training,
                                  const HeatMapTrace& validation,
                                  const Eigenmemory& reduction,
                                  const Options& options);

  /// log10 density of `map` under its phase's Gaussian.
  double score(const HeatMap& map) const;
  /// Score with an explicit phase (for raw vectors).
  double score(const std::vector<double>& raw, std::size_t phase) const;

  bool anomalous(const HeatMap& map) const;

  std::size_t phases() const { return phase_models_.size(); }
  const Eigenmemory& eigenmemory() const { return pca_; }
  double threshold() const { return threshold_; }

  /// Per-phase mean reduced weights (diagnostics).
  const std::vector<double>& phase_mean(std::size_t phase) const;

 private:
  struct PhaseModel {
    std::vector<double> mean;
    linalg::Cholesky chol;
    double log_norm = 0.0;
  };

  PhaseAwareDetector() = default;

  Eigenmemory pca_;
  std::vector<PhaseModel> phase_models_;
  double threshold_ = 0.0;
};

}  // namespace mhm
