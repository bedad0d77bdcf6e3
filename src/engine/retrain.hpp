#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/model_io.hpp"
#include "engine/engine.hpp"
#include "engine/normal_window.hpp"

namespace mhm::engine {

/// Continuous-training policy state (exported via /model and the
/// `engine.retrain_state` gauge; numeric values are the gauge encoding).
enum class RetrainState {
  kOk = 0,          ///< Healthy; watching for sustained drift.
  kDrifting = 1,    ///< Drift seen, sustain counter accumulating.
  kTraining = 2,    ///< Candidate fit and θ_p calibration in progress.
  kValidating = 3,  ///< Candidate built; validation gates running.
  kCooldown = 4,    ///< Post-publish refractory window.
};
const char* to_string(RetrainState state);

/// Outcome of one retrain attempt (manual or drift-triggered).
struct RetrainReport {
  bool accepted = false;
  /// "published" or the rejection gate that fired
  /// ("window_too_small" | "train_failed" | "alarm_rate" | "quantile_shift").
  std::string reason;
  std::uint64_t version = 0;        ///< Published registry/model version.
  std::uint64_t trigger_interval = 0;
  std::size_t window_rows = 0;      ///< Clean rows snapshotted for this run.
  std::size_t train_rows = 0;
  std::size_t calibration_rows = 0;
  std::size_t holdout_rows = 0;
  double holdout_alarm_rate = 0.0;
  double wilson_low = 0.0;          ///< Wilson bound the rate was judged in.
  double wilson_high = 1.0;
  /// Quantile the alarm-rate gate judged against: the configured p floored
  /// at 1/(calibration_rows + 1), the finest quantile that slice resolves.
  double expected_p = 0.0;
  double quantile_shift = 0.0;      ///< |median(holdout) − median(calib)|.
  double train_seconds = 0.0;       ///< Candidate fit + validation, wall.
};

/// Drift-triggered retrain → validate → hot-swap loop.
///
/// The missing link between PR 4's model-health monitor and the engine's
/// swap_model(): a `RetrainPolicy` state machine (OK → DRIFTING-sustained →
/// TRAINING → VALIDATING → publish) that, when the per-session monitor
/// reports sustained drift, trains a candidate model on the session's
/// NormalWindow of clean intervals, validates it, persists it through the
/// ModelRegistry and publishes it with swap_model — sessions pick the new
/// version up at their next interval boundary, so no map is ever dropped.
///
/// A candidate is trained by AnomalyDetector::train, the offline trainer,
/// with a fixed L′ (so through Eigenmemory::fit_topk) and fewer EM
/// restarts. The window snapshot is split chronologically: the oldest rows
/// train, the middle calibrates θ_p, and the newest slice is scored as a
/// held-out stream. Two gates must pass before publish:
///  * the held-out alarm rate must sit inside the Wilson interval of the
///    configured quantile p at `options.wilson_z` — a candidate that
///    alarms wildly (or never) on clean traffic is rejected;
///  * the held-out median score must sit within `quantile_margin` log10
///    units of the calibration median — a score-scale shift between the
///    two newest slices means the window itself straddles a behaviour
///    change, and the candidate would be born stale.
///
/// Threading: note() is called from the scoring thread (cheap: counter
/// updates under a mutex); the train/validate/publish pipeline runs on one
/// background worker (`options.background`) or inline (tests, the manual
/// `mhm_tool retrain` path). All numeric work goes through the
/// deterministic parallel_for runtime, so a retrain produces the same
/// candidate at any MHM_THREADS.
class RetrainManager {
 public:
  struct Options {
    /// Consecutive non-OK health verdicts required before a retrain fires
    /// (the "sustained" in DRIFTING-sustained).
    std::uint64_t sustain = 32;
    /// Intervals ignored after a publish before drift may trigger again.
    std::uint64_t cooldown = 256;
    /// Minimum clean rows in the window snapshot; fewer rejects the run.
    std::size_t min_window = 96;
    /// Chronological split fractions: the remainder after calibration +
    /// holdout trains. Calibration seeds θ_p; holdout is the judged slice.
    double calibration_fraction = 0.25;
    double holdout_fraction = 0.25;
    /// Eigenmemories for the candidate (0 = inherit the running model's).
    std::size_t components = 0;
    /// GMM components for the candidate (0 = inherit the running model's).
    std::size_t gmm_components = 0;
    /// EM restarts for the candidate (fewer than offline training: the
    /// retrain loop values latency; the validation gates catch bad fits).
    std::size_t gmm_restarts = 4;
    /// Wilson interval width (σ) for the alarm-rate gate.
    double wilson_z = 3.0;
    /// Allowed |median(holdout) − median(calibration)| in log10 units.
    double quantile_margin = 2.0;
    /// Run the pipeline on a background worker thread. False = note()
    /// runs it inline when the sustain threshold trips (deterministic
    /// single-thread tests; the manual tool path).
    bool background = true;
  };

  /// `window` supplies the clean rows (normally the session's
  /// clean_window()). `registry` may be null — candidates are then
  /// published with version = current + 1 but not persisted.
  RetrainManager(DetectionEngine engine, std::shared_ptr<NormalWindow> window,
                 std::shared_ptr<ModelRegistry> registry,
                 const Options& options);
  ~RetrainManager();

  RetrainManager(const RetrainManager&) = delete;
  RetrainManager& operator=(const RetrainManager&) = delete;

  /// Feed one interval's model-health verdict (call after analyze()).
  /// Drives the policy state machine; when the sustain threshold trips,
  /// schedules (background) or runs (inline) one retrain attempt.
  void note(std::uint64_t interval_index, obs::ModelHealthStatus status);

  /// Manual trigger: run train → validate → publish synchronously on the
  /// calling thread, regardless of policy state. Returns the report.
  RetrainReport retrain_now(std::uint64_t trigger_interval = 0);

  /// Block until no retrain attempt is in flight (test/shutdown barrier).
  void drain();

  RetrainState state() const;
  RetrainReport last_report() const;
  std::uint64_t published() const;
  std::uint64_t rejected_count() const;

  /// One-object JSON summary for the /model surface: state, counters,
  /// window occupancy and the last report.
  std::string json() const;

  /// Invoked (on the training thread) after every publish — the serve loop
  /// uses it to re-attach dashboards/server providers to the rebound
  /// session monitor, annotate journals, and note incidents.
  void set_publish_hook(std::function<void(const RetrainReport&)> hook);

 private:
  void worker_loop();
  RetrainReport run_attempt(std::uint64_t trigger_interval);
  void set_state(RetrainState state);

  DetectionEngine engine_;
  std::shared_ptr<NormalWindow> window_;
  std::shared_ptr<ModelRegistry> registry_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  RetrainState state_ = RetrainState::kOk;
  std::uint64_t streak_ = 0;          ///< Consecutive non-OK notes.
  std::uint64_t cooldown_left_ = 0;   ///< Intervals until drift re-arms.
  bool trigger_pending_ = false;
  std::uint64_t trigger_interval_ = 0;
  bool attempt_running_ = false;
  bool stop_ = false;
  RetrainReport last_;
  std::uint64_t published_ = 0;
  std::uint64_t rejected_ = 0;
  std::function<void(const RetrainReport&)> publish_hook_;
  std::thread worker_;  ///< Joined in the destructor (background mode).
};

}  // namespace mhm::engine
