#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/snapshot.hpp"
#include "core/stream_observer.hpp"
#include "engine/normal_window.hpp"
#include "engine/source.hpp"

namespace mhm::engine {

namespace detail {

/// State shared between an engine and its sessions. `epoch` is bumped on
/// every swap so a session can detect staleness with one relaxed-cheap
/// atomic load per interval and only takes the mutex on an actual change.
struct EngineShared {
  mutable std::mutex mu;
  std::shared_ptr<const ModelSnapshot> current;  ///< Guarded by mu.
  std::atomic<std::uint64_t> epoch{0};
};

}  // namespace detail

/// Per-session knobs: the StreamObserver's options (journal, phases, model
/// health, score history) plus the session-only clean-interval reservoir.
struct SessionOptions : StreamObserver::Options {
  /// Clean-interval reservoir (engine/normal_window): rows the session
  /// retains for the continuous-retrain loop. 0 keeps no window — the
  /// default; only retrain-enabled deployments pay the capacity × L bound.
  std::size_t clean_window_capacity = 0;

  /// Memory-bounded defaults for fleet-scale sessions: a short journal, a
  /// handful of transition events, no per-alarm cell explanations, a
  /// shrunken score-history ring (which is also the health sparkline). ~KBs
  /// per session instead of ~100s of KBs; the knobs are documented in
  /// docs/OBSERVABILITY.md.
  static SessionOptions fleet_preset() {
    SessionOptions o;
    o.journal_capacity = 32;
    o.top_cells = 0;
    o.health_max_events = 4;
    o.history_raw = 32;
    o.history_bins = 16;
    o.history_tiers = 1;
    return o;
  }
};

/// One hot model swap as a session saw it: the first interval scored with
/// the new snapshot, and the version stamps on either side.
struct ModelTransition {
  std::uint64_t interval_index = 0;
  std::uint64_t from_version = 0;
  std::uint64_t to_version = 0;
};

/// One monitored MHM stream. Sessions are vended by a DetectionEngine and
/// are single-threaded by design — each carries its own scoring scratch,
/// decision journal, phase-metric handles and model-health monitor, so any
/// number of sessions score concurrently without sharing mutable state.
/// Run N sessions over the same trace and each produces verdicts
/// bit-identical to a lone serial session.
///
/// A swap_model() on the engine is picked up at the next analyze() call —
/// the interval boundary — without dropping a map: the session re-reads the
/// shared snapshot pointer, rebinds its health monitor to the new model's
/// baseline, and logs a ModelTransition. Verdicts and journal records carry
/// the model_version stamp, so the transition is visible in the journal.
class Session {
 public:
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  /// Score a map straight from its counts, with no per-interval row copy;
  /// bit-identical to analyze(map.as_vector(), map.interval_index).
  Verdict analyze(const HeatMap& map);
  Verdict analyze(std::span<const double> raw, std::uint64_t interval_index);

  /// Drain a source, one verdict per interval.
  std::vector<Verdict> run(IntervalSource& source);

  /// The snapshot the next interval will be scored with (refreshed lazily —
  /// a pending swap is only visible here after the pickup boundary).
  const ModelSnapshot& model() const { return *snap_; }
  std::uint64_t model_version() const { return snap_->version; }

  /// Hot swaps this session has picked up, oldest first.
  const std::vector<ModelTransition>& transitions() const {
    return transitions_;
  }

  obs::DecisionJournal& journal() const { return observer_->journal(); }
  std::shared_ptr<const obs::DecisionJournal> journal_ptr() const {
    return observer_->journal_ptr();
  }
  std::shared_ptr<obs::ModelHealthMonitor> model_health() const {
    return observer_->model_health();
  }
  std::shared_ptr<obs::ScoreHistory> score_history() const {
    return observer_->score_history();
  }
  /// Attach/detach the incident black box (see StreamObserver).
  void attach_incidents(const obs::IncidentOptions& options,
                        std::shared_ptr<obs::IncidentStore> store) {
    observer_->attach_incidents(options, std::move(store));
  }
  std::shared_ptr<obs::IncidentRecorder> incident_recorder() const {
    return observer_->incident_recorder();
  }
  /// Stamp a one-shot note onto the next journal record (see
  /// StreamObserver::annotate_next) — the retrain loop marks publishes.
  void annotate_next(std::string note) {
    observer_->annotate_next(std::move(note));
  }

  /// Clean-interval reservoir (null unless clean_window_capacity > 0):
  /// every analyzed interval that raised no alarm and was judged OK by
  /// model health lands here — the retrain loop's training pantry.
  std::shared_ptr<NormalWindow> clean_window() const { return window_; }
  /// Copies of the newest `n` clean intervals (oldest first; n = 0 → all
  /// held). Empty when no window is attached.
  std::vector<std::vector<double>> last_clean(std::size_t n = 0) const {
    return window_ != nullptr ? window_->last(n)
                              : std::vector<std::vector<double>>{};
  }

  /// Per-interval health tap: called after each interval is recorded with
  /// (interval_index, model-health status). The retrain loop's drift
  /// counter feeds off this — wire it to RetrainManager::note. Runs on the
  /// scoring thread; keep it cheap.
  void set_status_hook(
      std::function<void(std::uint64_t, obs::ModelHealthStatus)> hook) {
    status_hook_ = std::move(hook);
  }

 private:
  friend class DetectionEngine;
  Session(std::shared_ptr<detail::EngineShared> shared,
          const SessionOptions& options);

  /// Interval-boundary pickup: one acquire load per interval; a published
  /// swap is adopted (and recorded as a transition) before the map at
  /// `interval_index` is scored.
  void pick_up_model(std::uint64_t interval_index);
  /// Record a scored interval (its projection in scratch_.reduced) through
  /// the observer, the clean window and the status hook.
  void observe(const Verdict& v, std::span<const double> raw);

  std::shared_ptr<detail::EngineShared> shared_;
  std::shared_ptr<const ModelSnapshot> snap_;
  std::uint64_t epoch_ = 0;
  ScoreScratch scratch_;
  std::unique_ptr<StreamObserver> observer_;
  std::shared_ptr<NormalWindow> window_;  ///< Null unless configured.
  std::function<void(std::uint64_t, obs::ModelHealthStatus)> status_hook_;
  std::vector<ModelTransition> transitions_;
};

/// Reusable workspace for the shard scoring entry points: the SoA batch,
/// its scratch, and the gather staging buffers. One per driving thread —
/// shard calls reuse its high-water-marked buffers, so steady-state shard
/// scoring allocates nothing. Never share one across concurrent shard calls.
struct ShardWorkspace {
  ScoreBatch batch;
  BatchScoreScratch scratch;
  /// pump_shard staging: per-slot raw-row buffers (capacity reused across
  /// pumps) and the compacted live-slot arrays.
  std::vector<std::vector<double>> raw_rows;
  std::vector<Session*> live_sessions;
  std::vector<std::span<const double>> live_raws;
  std::vector<std::uint64_t> live_intervals;
};

/// The serving-shaped core of the reproduction: owns the current immutable
/// ModelSnapshot and vends independent scoring Sessions. The engine itself
/// holds no scratch and no journal — it is safe to share across threads;
/// all mutable per-stream state lives in the sessions (and, for the shard
/// path, in the caller's ShardWorkspace).
class DetectionEngine {
 public:
  explicit DetectionEngine(std::shared_ptr<const ModelSnapshot> snapshot);

  /// Atomically publish a new model. Running sessions pick it up at their
  /// next interval boundary. Validates that the snapshot is internally
  /// consistent and operates on the same cell count as the current model
  /// (throws ConfigError otherwise). Exports `engine.model_version` and
  /// bumps `engine.model_swaps`.
  void swap_model(std::shared_ptr<const ModelSnapshot> snapshot);

  std::shared_ptr<const ModelSnapshot> current_model() const;
  std::uint64_t model_version() const { return current_model()->version; }

  Session new_session(const SessionOptions& options = {}) const;

  /// Score one ready interval from each of N sessions as a single batch:
  /// gather (with per-session interval-boundary model pickup, in session
  /// order), score once through score_snapshot_batch, then scatter each
  /// verdict back through its session's StreamObserver — journal, phase
  /// metrics and model health see exactly what a serial analyze() would
  /// have recorded. `sessions`, `raws` and `interval_indices` are parallel
  /// spans. Verdicts are appended to `verdicts` (when non-null) in session
  /// order and are bit-identical to per-session analyze() calls; only
  /// `analysis_time` differs (amortized batch share). If a concurrent
  /// swap_model lands mid-gather and splits the shard across two model
  /// versions, the shard falls back to the serial per-session path — same
  /// math, no cross-model batch.
  void analyze_shard(std::span<Session* const> sessions,
                     std::span<const std::span<const double>> raws,
                     std::span<const std::uint64_t> interval_indices,
                     ShardWorkspace& workspace,
                     std::vector<Verdict>* verdicts = nullptr) const;

  /// Pull the next interval from every live source and score the shard in
  /// one batch (exhausted sources are skipped). `sessions` and `sources`
  /// are parallel spans. Returns the number of intervals scored — 0 means
  /// every source is drained.
  std::size_t pump_shard(std::span<Session* const> sessions,
                         std::span<IntervalSource* const> sources,
                         ShardWorkspace& workspace,
                         std::vector<Verdict>* verdicts = nullptr) const;

 private:
  std::shared_ptr<detail::EngineShared> shared_;
};

}  // namespace mhm::engine
