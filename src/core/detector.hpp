#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/gmm.hpp"
#include "core/heatmap.hpp"
#include "core/pca.hpp"
#include "core/snapshot.hpp"

namespace mhm {

/// The learning half of the paper's pipeline (§4): fit the eigenmemory
/// projection and the GMM density on normal maps, then calibrate the
/// threshold θ_p on a disjoint normal set. The result is an immutable
/// ModelSnapshot; scoring and observation belong to engine::Session, which
/// a DetectionEngine vends over snapshot().
class AnomalyDetector {
 public:
  struct Options {
    /// Defaults: retain 99.99 % variance (exact fit()). A fixed
    /// components > 0 trains through Eigenmemory::fit_topk.
    Eigenmemory::Options pca;
    Gmm::Options gmm;          ///< Defaults: J = 5, 10 restarts.
    double primary_p = 0.01;   ///< Threshold quantile for verdicts (θ_1).
  };

  /// Train from normal-behaviour maps and calibrate thresholds on a second,
  /// disjoint set of normal maps.
  static AnomalyDetector train(const HeatMapTrace& training,
                               const HeatMapTrace& validation,
                               const Options& options);

  /// Same, over raw vectors.
  static AnomalyDetector train(
      const std::vector<std::vector<double>>& training,
      const std::vector<std::vector<double>>& validation,
      const Options& options);

  const Eigenmemory& eigenmemory() const { return snap_->pca; }
  const Gmm& gmm() const { return snap_->gmm; }
  const ThresholdCalibrator& thresholds() const { return snap_->calibrator; }
  Threshold primary_threshold() const { return snap_->primary; }

  /// The trained model — the handle a DetectionEngine (or a ModelRegistry
  /// save) takes, shared, not copied.
  std::shared_ptr<const ModelSnapshot> snapshot() const { return snap_; }

 private:
  explicit AnomalyDetector(std::shared_ptr<const ModelSnapshot> snapshot)
      : snap_(std::move(snapshot)) {}

  std::shared_ptr<const ModelSnapshot> snap_;
};

/// Baseline detector from Figure 9's discussion: watch only the total
/// memory-traffic volume per interval and flag values outside a calibrated
/// band. Cheap, but blind to compositional changes that keep volume steady —
/// which is exactly why the rootkit's post-load phase evades it.
class TrafficVolumeDetector {
 public:
  /// Calibrate on normal traffic volumes: the band is
  /// [q_{p} − margin·IQR, q_{1−p} + margin·IQR].
  TrafficVolumeDetector(const std::vector<double>& normal_volumes, double p,
                        double margin = 0.5);

  static TrafficVolumeDetector from_trace(const HeatMapTrace& normal, double p,
                                          double margin = 0.5);

  bool anomalous(double volume) const;
  bool anomalous(const HeatMap& map) const;

  double lower_bound() const { return lower_; }
  double upper_bound() const { return upper_; }

 private:
  double lower_ = 0.0;
  double upper_ = 0.0;
};

/// Baseline the paper dismisses as "computationally prohibitive" (§4.1):
/// keep every training MHM and score a test map by its distance to the
/// nearest neighbour in the raw L-dimensional space. Used in the ablation
/// benches to quantify the cost/accuracy trade-off against eigenmemory+GMM.
class NearestNeighborDetector {
 public:
  /// Stores the training set; calibrates the distance threshold as the
  /// p-quantile of validation nearest-neighbour distances.
  NearestNeighborDetector(std::vector<std::vector<double>> training,
                          const std::vector<std::vector<double>>& validation,
                          double p);

  /// Distance of `x` to the nearest stored map (O(N·L) per query).
  double nearest_distance(const std::vector<double>& x) const;

  bool anomalous(const std::vector<double>& x) const;

  double threshold() const { return threshold_; }
  std::size_t stored_maps() const { return training_.size(); }
  /// Bytes of storage the raw training set occupies — the cost the paper
  /// calls prohibitive for on-chip secure-core memory.
  std::size_t storage_bytes() const;

 private:
  std::vector<std::vector<double>> training_;
  double threshold_ = 0.0;
};

}  // namespace mhm
