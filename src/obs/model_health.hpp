#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace mhm::obs {

/// Online model-health telemetry.
///
/// The detector's θ_p calibration assumes the trained GMM stays
/// representative of normal behaviour; in a long-running deployment the
/// normal MHM distribution drifts and the model goes stale silently. The
/// ModelHealthMonitor rides on engine::Session::analyze and keeps four
/// independent views of the live score stream, all deterministic and
/// seed-free:
///
///  1. streaming P² quantile sketches of the log10 density (and the PCA
///     residual / SPE) compared against the training-time validation scores;
///  2. per-component arg-max responsibility occupancy, so a mixture
///     component going dark or starting to dominate is visible;
///  3. a two-sided CUSUM change detector on the standardized score;
///  4. calibration: the empirical alarm rate vs the configured quantile p,
///     with Wilson-interval bounds.
///
/// The verdict is a three-state status — OK / DRIFTING / MISCALIBRATED —
/// rendered as the `model_health.*` gauges by the /metrics scrape of the
/// server the monitor is attached to, served as JSON by the /model route,
/// embedded in black-box bundles, and rendered live by `mhm_tool watch`.
/// The monitor keeps statistics only: the sparkline scores and the heat row
/// in its snapshot are read from the stream's ScoreHistory and
/// IncidentRecorder, never copied per interval. Like the rest of the obs
/// layer the monitor never feeds back into detection, so the determinism
/// guarantees of the pipeline are untouched; under MHM_OBS_DISABLE the
/// monitor compiles down to an empty shell while the pure primitives below
/// stay available.

/// Streaming quantile estimate by the P² algorithm (Jain & Chlamtac,
/// CACM 1985): five markers tracked with parabolic interpolation, O(1)
/// per observation, no stored samples, no randomness. Exact for the first
/// five observations.
class P2Quantile {
 public:
  /// `p` in (0,1): the quantile to track (clamped to [0.001, 0.999]).
  explicit P2Quantile(double p);

  void add(double x);
  /// Current estimate (exact while fewer than five samples; 0 when empty).
  double value() const;
  std::uint64_t count() const { return n_; }
  double probability() const { return p_; }

 private:
  double parabolic(int i, double sign) const;
  double linear(int i, int sign) const;

  double p_;
  std::uint64_t n_ = 0;
  double q_[5] = {0, 0, 0, 0, 0};     ///< Marker heights.
  double pos_[5] = {1, 2, 3, 4, 5};   ///< Actual marker positions.
  double want_[5] = {1, 2, 3, 4, 5};  ///< Desired marker positions.
  double step_[5] = {0, 0, 0, 0, 0};  ///< Desired-position increments.
};

/// Two-sided CUSUM on an already-standardized stream z = (x−μ₀)/σ₀:
/// s⁺ = max(0, s⁺ + z − k), s⁻ = max(0, s⁻ − z − k); fires (and latches)
/// when either sum exceeds h. k and h are in σ units — k is the slack
/// (half the shift deemed worth detecting), h the decision threshold.
class CusumDetector {
 public:
  CusumDetector(double k, double h) : k_(k), h_(h) {}

  /// Feed one standardized observation; returns true when this observation
  /// fires the detector (the `fired` latch then stays set).
  bool add(double z);

  double positive_sum() const { return s_pos_; }
  double negative_sum() const { return s_neg_; }
  double threshold() const { return h_; }
  bool fired() const { return fired_; }

 private:
  double k_;
  double h_;
  double s_pos_ = 0.0;
  double s_neg_ = 0.0;
  bool fired_ = false;
};

/// Wilson score interval for a binomial proportion at `z` standard normal
/// quantiles — the calibration check asks whether the configured alarm
/// quantile p is a plausible value for the observed alarm rate.
struct WilsonInterval {
  double low = 0.0;
  double high = 1.0;
};
WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z);

enum class ModelHealthStatus {
  kOk = 0,
  kDrifting = 1,       ///< The CUSUM drift detector has fired.
  kMiscalibrated = 2,  ///< Configured p outside the Wilson alarm-rate bound.
};
const char* to_string(ModelHealthStatus status);

struct ModelHealthOptions {
  double expected_p = 0.01;   ///< Configured alarm quantile (θ_p's p).
  double cusum_k = 0.5;       ///< CUSUM slack, σ units.
  double cusum_h = 10.0;      ///< CUSUM decision threshold, σ units.
  double wilson_z = 3.0;      ///< Calibration interval width (≈3σ).
  std::uint64_t min_intervals = 64;  ///< Calibration verdicts need this many.
  /// Intervals at the start of each run (interval_index < warmup) excluded
  /// from the drift detector. Cold-start heat maps score as extreme
  /// outliers; CUSUM would latch on them even though steady-state behaviour
  /// is healthy. Quantiles, occupancy and calibration still see every
  /// interval.
  std::uint64_t warmup = 10;
  /// Winsorization bound for the standardized score fed to CUSUM, σ units:
  /// one freak interval cannot latch it, while a sustained shift still
  /// accumulates |z| ≤ z_clamp per interval and fires within a few
  /// intervals.
  double z_clamp = 8.0;
  std::size_t max_events = 32;  ///< Status-transition records kept.
};

/// One status transition, kept in a bounded list and exported via /model.
struct ModelHealthEvent {
  std::uint64_t interval = 0;
  ModelHealthStatus from = ModelHealthStatus::kOk;
  ModelHealthStatus to = ModelHealthStatus::kOk;
  std::string detail;
};

/// Point-in-time copy of the monitor state (everything /model serves).
struct ModelHealthSnapshot {
  ModelHealthStatus status = ModelHealthStatus::kOk;
  std::uint64_t intervals = 0;
  std::uint64_t alarms = 0;
  double alarm_rate = 0.0;
  double expected_p = 0.0;
  WilsonInterval wilson;
  bool calibrated = true;
  double cusum_pos = 0.0;
  double cusum_neg = 0.0;
  double cusum_threshold = 0.0;
  bool cusum_fired = false;
  double score_mean = 0.0;
  double score_stddev = 0.0;
  double score_q05 = 0.0;
  double score_q50 = 0.0;
  double score_q95 = 0.0;
  double train_mean = 0.0;
  double train_stddev = 0.0;
  double train_q05 = 0.0;
  double train_q50 = 0.0;
  double train_q95 = 0.0;
  double spe_last = 0.0;
  double spe_q50 = 0.0;
  double spe_q95 = 0.0;
  std::vector<double> component_weights;
  std::vector<std::uint64_t> component_occupancy;
  std::vector<ModelHealthEvent> events;
  /// The session ring's newest scores, oldest first (spans model swaps;
  /// empty without a ring view).
  std::vector<double> recent_scores;
  /// The incident recorder's newest captured heat-map row and its interval
  /// (empty and 0 without a recorder view or captured rows).
  std::vector<double> last_row;
  std::uint64_t last_row_interval = 0;
};

class IncidentRecorder;
class IntervalRing;

class ModelHealthMonitor {
 public:
  /// `training_scores_log10` — the validation log10 densities persisted by
  /// model_io (the same vector θ_p is calibrated from); its mean/σ/quantiles
  /// form the reference every live statistic is compared against.
  /// `component_weights` — the mixture weights λ_j, for the occupancy view.
  ModelHealthMonitor(const std::vector<double>& training_scores_log10,
                     std::vector<double> component_weights,
                     const ModelHealthOptions& options);
  ~ModelHealthMonitor();

  ModelHealthMonitor(const ModelHealthMonitor&) = delete;
  ModelHealthMonitor& operator=(const ModelHealthMonitor&) = delete;

  /// Per-interval hook (detector, under obs::enabled()): the score and SPE
  /// are the ones analyze() already computed — the monitor never re-scores.
  /// Returns the status *after* this observation, so callers feeding the
  /// score history and the incident recorder see transitions without a
  /// second lock acquisition. Thread-safe; state is order-dependent under
  /// parallel scoring but, like every obs metric, never feeds back into
  /// detection. Writes no gauge: the only registry writes are the sharded
  /// transition counters.
  ModelHealthStatus observe(double log10_density, double spe,
                            std::size_t pattern, bool alarm,
                            std::uint64_t interval_index);

  /// Point snapshot()'s `recent_scores` at the newest `recent` scores of
  /// `ring` and its heat row at `rows`' newest captured row. Either may be
  /// null; that part of the snapshot is then empty. Thread-safe.
  void attach_views(std::shared_ptr<const IntervalRing> ring,
                    std::size_t recent,
                    std::shared_ptr<const IncidentRecorder> rows);

  ModelHealthStatus status() const;
  ModelHealthSnapshot snapshot() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  ///< Null when obs is compiled out.
};

/// JSON object for a snapshot — the /model response body, one line.
std::string model_health_json(const ModelHealthSnapshot& snapshot);

/// The `model_health.*` gauges of a snapshot in Prometheus text format
/// (status, alarm rate, Wilson bounds, drift sums, score / SPE quantiles,
/// per-component occupancy) — appended to /metrics at scrape time.
std::string model_health_prometheus(const ModelHealthSnapshot& snapshot);

}  // namespace mhm::obs
