#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/gmm.hpp"
#include "core/pca.hpp"

namespace mhm {

/// Detection threshold θ_p (paper §5.2): the p-quantile of the log densities
/// of a held-out set of *normal* MHMs. The expected false-positive rate is p.
/// The figures draw θ_{0.5} (p = 0.005) and θ_1 (p = 0.01).
struct Threshold {
  double p = 0.01;          ///< Quantile level (e.g. 0.005 for θ_{0.5}).
  double log10_value = 0.0; ///< Threshold on log10 Pr(M).
};

/// Calibrates one or more θ_p thresholds from validation log-densities.
class ThresholdCalibrator {
 public:
  /// `validation_log10` — log10 densities of held-out normal MHMs.
  explicit ThresholdCalibrator(std::vector<double> validation_log10);

  /// θ at quantile p (p in (0,1)).
  Threshold at(double p) const;

  /// Shorthands used throughout the evaluation.
  Threshold theta_05() const { return at(0.005); }  ///< θ_{0.5}
  Threshold theta_1() const { return at(0.01); }    ///< θ_1

  const std::vector<double>& validation_scores() const { return scores_; }

 private:
  std::vector<double> scores_;
};

/// Verdict for one analyzed MHM.
struct Verdict {
  std::uint64_t interval_index = 0;
  double log10_density = 0.0;
  bool anomalous = false;          ///< Against the primary threshold.
  std::size_t nearest_pattern = 0; ///< Most responsible GMM component.
  /// PCA residual (squared prediction error): ‖Φ − B^T w‖², the energy the
  /// eigenmemory basis failed to capture. With an orthonormal basis this is
  /// ‖Φ‖² − ‖w‖², so it falls out of the projection scratch for free.
  double spe = 0.0;
  /// Version of the ModelSnapshot that scored this interval — after a hot
  /// model swap the stamp flips at the interval boundary where the session
  /// picked the new model up.
  std::uint64_t model_version = 0;
  std::chrono::nanoseconds analysis_time{0};  ///< Secure-core compute time.
};

/// Per-cell first/second moments of the raw training maps, used to rank the
/// cells that drive an alarm in the decision journal. Absent (null) on
/// models reassembled from serialized parts — the raw training set is gone
/// after serialization, so assembled detectors journal no top_cells.
struct CellBaseline {
  std::vector<double> mean;
  std::vector<double> stddev;
};

/// The immutable, shareable artifact of training: everything needed to score
/// an MHM stream. The engine layer hands one `shared_ptr<const ModelSnapshot>`
/// to any number of concurrent sessions; hot model swap is a pointer swap.
struct ModelSnapshot {
  Eigenmemory pca;
  Gmm gmm;
  ThresholdCalibrator calibrator;
  Threshold primary;
  std::shared_ptr<const CellBaseline> baseline;  ///< Null when assembled.
  /// Model artifact version (registry id, or 0 for ad-hoc in-process
  /// models). Stamped on every Verdict scored against this snapshot.
  std::uint64_t version = 0;

  /// Build a snapshot from trained parts, validating that the GMM operates
  /// in the eigenmemory's reduced space (throws ConfigError otherwise).
  static std::shared_ptr<const ModelSnapshot> assemble(
      Eigenmemory pca, Gmm gmm, ThresholdCalibrator calibrator,
      double primary_p,
      std::shared_ptr<const CellBaseline> baseline = nullptr,
      std::uint64_t version = 0);
};

/// Per-stream scoring scratch: reaches its final size on the first interval,
/// then every score is allocation-free. One per session / per thread — never
/// shared across concurrent scorers.
struct ScoreScratch {
  /// The scored map as doubles: written by the HeatMap overload of
  /// score_snapshot (the observer's incident rows and top cells read it).
  std::vector<double> raw;
  std::vector<double> reduced;  ///< Projected weights w (M').
  std::vector<double> gamma;    ///< Per-component responsibilities.
  Gmm::Scratch gmm;
};

/// Score one raw MHM against a snapshot: project, evaluate the mixture,
/// compare against the primary threshold. Timed — `Verdict::analysis_time`
/// is the wall-clock cost of projection + density (the §5.4 measurement);
/// ‖Φ‖² comes out of the projection pass and the SPE is finished untimed.
/// Pure: no metrics, no journal — observation is the StreamObserver's job.
Verdict score_snapshot(const ModelSnapshot& snapshot,
                       std::span<const double> raw,
                       std::uint64_t interval_index, ScoreScratch& scratch);

/// Score a HeatMap straight from its counts: the projection pass converts
/// each cell to double as it goes (so `analysis_time` includes the
/// conversion) and leaves the double row in `scratch.raw`. Bit-identical to
/// score_snapshot(snapshot, map.as_vector(), map.interval_index, scratch).
Verdict score_snapshot(const ModelSnapshot& snapshot, const HeatMap& map,
                       ScoreScratch& scratch);

/// Structure-of-arrays batch for shard-at-a-time scoring: raw-map views in,
/// verdict columns out. Inputs are spans — push() stores a view, so the
/// backing storage must outlive the score + scatter. Intermediates and
/// outputs are batch-contiguous column blocks (element [row * size() + b]
/// belongs to sample b). Every buffer grows to a high-water mark and is
/// reused across clear()/push() cycles: once a batch size has been seen,
/// refilling and rescoring at that size (or smaller) allocates nothing.
class ScoreBatch {
 public:
  /// Drop all samples and stamp the expected cell count L; capacity is kept.
  void clear(std::size_t input_dim);

  /// Append one raw-map view (length L) with its interval index.
  void push(std::span<const double> raw, std::uint64_t interval_index);

  std::size_t size() const { return raws_.size(); }
  bool empty() const { return raws_.empty(); }
  std::size_t input_dim() const { return input_dim_; }

  std::span<const std::span<const double>> raws() const { return raws_; }
  std::span<const double> raw(std::size_t b) const { return raws_[b]; }
  std::uint64_t interval_index(std::size_t b) const { return intervals_[b]; }

  /// Assemble sample b's Verdict from the output columns (valid after
  /// score_snapshot_batch). `analysis_time` is the batch's amortized share
  /// (batch_time / size()) — the timing is per-batch by construction and is
  /// explicitly *not* part of the bit-identity contract.
  Verdict verdict(std::size_t b) const;

  /// Gather sample b's reduced weights (a strided column read) into `out`.
  void extract_reduced(std::size_t b, std::vector<double>& out) const;

  // Output columns, filled by score_snapshot_batch().
  /// Mean-shifted maps Φ as Eigenmemory::kBatchTile-blocked column tiles
  /// (see project_batch); the projection kernel streams each L × 16 tile
  /// directly from this buffer.
  std::vector<double> phi;
  std::vector<double> reduced;         ///< L' × B projected weights.
  std::vector<double> terms;           ///< J × B per-component log joints.
  std::vector<double> gamma;           ///< J × B responsibilities.
  std::vector<double> ln_density;      ///< B natural-log densities.
  std::vector<double> log10_density;   ///< B log10 densities.
  std::vector<double> spe;             ///< B PCA residuals.
  std::vector<std::size_t> nearest;    ///< B most responsible components.
  std::vector<std::uint8_t> anomalous; ///< B primary-threshold verdicts.
  std::uint64_t model_version = 0;     ///< Snapshot version that scored us.
  std::chrono::nanoseconds batch_time{0};  ///< Projection + density, whole batch.

 private:
  std::size_t input_dim_ = 0;
  std::vector<std::span<const double>> raws_;
  std::vector<std::uint64_t> intervals_;
};

/// Reusable workspace for score_snapshot_batch — one per scoring thread,
/// never shared across concurrent batch scorers.
struct BatchScoreScratch {
  Gmm::BatchScratch gmm;
  std::vector<double> phi_sq;  ///< B running ‖Φ‖² (fed by the projection).
  std::vector<double> w_sq;    ///< B running ‖w‖².
};

/// Score a whole ScoreBatch against one snapshot in a single GEMM-shaped
/// pass: cache-blocked batch projection, vectorized per-component mixture
/// densities, columnwise SPE via the ‖Φ‖² − ‖w‖² identity. Bit-identical to
/// calling score_snapshot() per sample — every per-sample accumulation keeps
/// its serial operation order; only independent samples run side by side
/// (see the determinism notes on project_batch / responsibilities_batch).
/// Allocation-free once the batch size has been seen. Pure, like
/// score_snapshot: no metrics, no journal.
void score_snapshot_batch(const ModelSnapshot& snapshot, ScoreBatch& batch,
                          BatchScoreScratch& scratch);

}  // namespace mhm
