#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/gmm.hpp"
#include "core/heatmap.hpp"
#include "core/pca.hpp"
#include "core/snapshot.hpp"
#include "core/stream_observer.hpp"
#include "obs/journal.hpp"

namespace mhm::obs {
class Histogram;
class ModelHealthMonitor;
}  // namespace mhm::obs

namespace mhm {

/// The complete learning + detection pipeline of the paper (§4):
/// eigenmemory projection -> GMM density -> threshold test.
///
/// Since the engine layer landed this is a thin single-stream façade over
/// the same primitives engine::Session uses: an immutable ModelSnapshot
/// scored with score_snapshot() and observed through a StreamObserver
/// (journal, phase metrics, model health). It is kept for API
/// compatibility — the batch pipeline and the benches drive it directly.
/// The scoring scratch is per-instance (like engine::Session), so one
/// detector must not be scored from several threads at once; copies are
/// cheap (two shared_ptrs plus empty scratch) and share the model, the
/// journal and the health monitor, so concurrent scenario runs give each
/// thread its own copy and still aggregate into one observation stream —
/// run_scenarios does exactly that.
class AnomalyDetector {
 public:
  struct Options {
    /// Defaults: retain 99.99 % variance (exact fit()). A fixed
    /// components > 0 trains through Eigenmemory::fit_topk.
    Eigenmemory::Options pca;
    Gmm::Options gmm;          ///< Defaults: J = 5, 10 restarts.
    double primary_p = 0.01;   ///< Threshold quantile for verdicts (θ_1).
    /// Decision-journal ring capacity (0 keeps the journal default).
    std::size_t journal_capacity = 0;
    /// Modulus for the journal's hyperperiod-phase label (matches
    /// PhaseAwareDetector::Options::phases).
    std::size_t journal_phases = 10;
    /// Cells ranked by |z| against the training baseline in each alarm's
    /// journal record (0 disables the per-alarm explanation).
    std::size_t journal_top_cells = 8;
  };

  /// Train from normal-behaviour maps and calibrate thresholds on a second,
  /// disjoint set of normal maps.
  static AnomalyDetector train(const HeatMapTrace& training,
                               const HeatMapTrace& validation,
                               const Options& options);
  static AnomalyDetector train(const HeatMapTrace& training,
                               const HeatMapTrace& validation) {
    return train(training, validation, Options{});
  }

  /// Same, over raw vectors.
  static AnomalyDetector train(
      const std::vector<std::vector<double>>& training,
      const std::vector<std::vector<double>>& validation,
      const Options& options);
  static AnomalyDetector train(
      const std::vector<std::vector<double>>& training,
      const std::vector<std::vector<double>>& validation) {
    return train(training, validation, Options{});
  }

  /// Analyze one MHM: project, score, compare against the primary threshold.
  /// Timed — `Verdict::analysis_time` is the wall-clock cost of projection +
  /// density evaluation (the §5.4 measurement). Allocation-free in steady
  /// state (per-instance scratch buffers); score concurrently through
  /// per-thread copies, not one shared instance.
  Verdict analyze(const HeatMap& map) const;
  Verdict analyze(const std::vector<double>& raw,
                  std::uint64_t interval_index = 0) const;

  /// Score only (log10 density), untimed.
  double score(const std::vector<double>& raw) const;

  const Eigenmemory& eigenmemory() const { return snap_->pca; }
  const Gmm& gmm() const { return snap_->gmm; }
  const ThresholdCalibrator& thresholds() const { return snap_->calibrator; }
  Threshold primary_threshold() const { return snap_->primary; }

  /// The immutable model this detector scores with — the handle a
  /// DetectionEngine (or a ModelRegistry save) takes, shared, not copied.
  std::shared_ptr<const ModelSnapshot> snapshot() const { return snap_; }

  /// The process-wide `detector.analysis_ns` registry histogram — every
  /// analyze() call in the process observes into it. Benches and tests that
  /// want a per-run mean reset it before the run and read sum()/count()
  /// after (it records nothing while observability is disabled).
  static obs::Histogram& analysis_time_histogram();

  /// Per-interval decision journal (shared between copies of the detector).
  /// Always present; empty while observability is disabled.
  obs::DecisionJournal& journal() const { return observer_->journal(); }
  /// Shared handle for consumers that outlive this detector object — the
  /// monitoring endpoint and the flight recorder hold one.
  std::shared_ptr<const obs::DecisionJournal> journal_ptr() const {
    return observer_->journal_ptr();
  }

  /// Online model-health monitor fed by analyze(): score-drift detectors,
  /// calibration tracking and component occupancy (src/obs/model_health).
  /// Shared between copies of the detector; null when detached
  /// (set_model_health(nullptr) or MHM_DRIFT_DISABLE=1).
  std::shared_ptr<obs::ModelHealthMonitor> model_health() const {
    return observer_->model_health();
  }
  /// Swap or detach (nullptr) the monitor — the perf bench measures the
  /// hook's cost by detaching and re-attaching.
  void set_model_health(std::shared_ptr<obs::ModelHealthMonitor> monitor) {
    observer_->set_model_health(std::move(monitor));
  }

  /// Multi-resolution score history fed by analyze() (src/obs/history).
  std::shared_ptr<obs::ScoreHistory> score_history() const {
    return observer_->score_history();
  }
  /// Attach the incident black box: alarm bursts / health transitions on
  /// this detector's stream commit `.mhmi` bundles into `store`.
  void attach_incidents(const obs::IncidentOptions& options,
                        std::shared_ptr<obs::IncidentStore> store) {
    observer_->attach_incidents(options, std::move(store));
  }
  std::shared_ptr<obs::IncidentRecorder> incident_recorder() const {
    return observer_->incident_recorder();
  }

  /// Reassemble from previously trained parts (deserialization): dimension
  /// compatibility between the PCA output and the GMM is validated. The
  /// assembled detector carries no CellBaseline (the raw training set is
  /// gone after serialization), so its journal records have no top_cells.
  static AnomalyDetector assemble(Eigenmemory pca, Gmm gmm,
                                  ThresholdCalibrator calibrator,
                                  double primary_p);

  /// Façade over an existing snapshot — keeps the snapshot's CellBaseline
  /// and version stamp. This is how `mhm_tool serve` re-hangs a freshly
  /// registry-saved model (now carrying its registry version) in front of
  /// the same observation stack.
  static AnomalyDetector from_snapshot(
      std::shared_ptr<const ModelSnapshot> snapshot,
      const StreamObserver::Options& obs_options = {}) {
    return AnomalyDetector(std::move(snapshot), obs_options);
  }

 private:
  AnomalyDetector(std::shared_ptr<const ModelSnapshot> snapshot,
                  const StreamObserver::Options& obs_options);

  std::shared_ptr<const ModelSnapshot> snap_;
  /// Shared between copies so a copied detector journals into (and reports
  /// health through) the same stream — the run_scenarios fan-out relies on
  /// one aggregated journal.
  std::shared_ptr<StreamObserver> observer_;
  /// Per-instance scoring scratch (reaches its final size on the first
  /// analyze, then allocation-free). Mutable: analyze() is logically const.
  mutable ScoreScratch scratch_;
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
