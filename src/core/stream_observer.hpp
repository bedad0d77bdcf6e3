#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "obs/incident.hpp"
#include "obs/interval_ring.hpp"
#include "obs/journal.hpp"

namespace mhm::obs {
class Counter;
class Histogram;
enum class ModelHealthStatus;
class ModelHealthMonitor;
class ScoreHistory;
}  // namespace mhm::obs

namespace mhm {

/// Per-stream observation bundle: the interval ring, the decision journal,
/// the hyperperiod-phase metric handles and the model-health monitor that
/// ride on one scored MHM stream. Every engine::Session owns one, so a
/// stream's telemetry travels with the stream instead of hanging off a
/// process-global detector.
///
/// Each scored interval's verdict fields are stored once, in the
/// observer's IntervalRing (capacity max(journal_capacity, history_raw,
/// incident pre + post + 1)). The journal, the score history's raw tier,
/// the incident window and the health sparkline are views over it. The
/// counters resolve through the process-wide Registry by name, so
/// concurrent streams aggregate into the same /metrics series.
class StreamObserver {
 public:
  struct Options {
    /// Decision-journal ring capacity (0 keeps the journal default).
    std::size_t journal_capacity = 0;
    /// Modulus for the journal's hyperperiod-phase label. The phase metric
    /// handles are registered once, here, under this final count — never
    /// re-keyed — so no stale per-phase counters are left in the registry.
    std::size_t phases = 10;
    /// Cells ranked by |z| against the training baseline in each alarm's
    /// journal record (0 disables the per-alarm explanation).
    std::size_t top_cells = 8;
    /// Model-health status-transition log depth (0 = none).
    std::size_t health_max_events = 32;
    /// False skips the per-session ModelHealthMonitor entirely (drift /
    /// calibration state is then someone else's job — e.g. the fleet
    /// aggregator's rollup of a sampled subset).
    bool attach_health = true;
    /// Multi-resolution score history (obs/history): the newest
    /// history_raw ring entries plus min/mean/max folded tiers.
    /// history_raw = 0 skips the history entirely; the fleet preset shrinks
    /// it to fit the session budget. The same entries are the model-health
    /// sparkline (`recent_scores`).
    /// Every tier folds 8 finer entries (HistoryOptions' default).
    std::size_t history_raw = 256;
    std::size_t history_bins = 128;
    std::size_t history_tiers = 2;
  };

  /// Builds the phase handle cache and (unless attach_health is false) a
  /// ModelHealthMonitor seeded from the snapshot's validation scores and
  /// mixture weights, viewing this stream's score history.
  StreamObserver(const ModelSnapshot& snapshot, const Options& options);

  /// Record one scored interval: process + per-phase metrics, model-health
  /// observation, then under the ring's one lock the ring row, the
  /// journal's side state and the history fold, then the incident
  /// recorder. `raw` and `reduced` are views of the map and its projection
  /// from the scoring call (a batch scatter passes SoA column gathers;
  /// nothing is re-scored) — they are copied where retained, never stored as
  /// views. No-op while observability is disabled. Called from the owning
  /// session's scoring thread only.
  /// Returns the model-health verdict for this interval (kOk when no monitor
  /// is attached or observability is off) so callers — the engine's
  /// clean-interval reservoir — can gate on it without a second lock
  /// acquisition on the monitor.
  obs::ModelHealthStatus record(const ModelSnapshot& snapshot,
                                const Verdict& verdict,
                                std::span<const double> raw,
                                std::span<const double> reduced);

  /// Rebuild the model-health monitor against a new snapshot (hot model
  /// swap): the health baseline always belongs to the model being scored
  /// with. The ring and its views, the phase handles and the incident
  /// recorder are untouched; the new monitor views the same ring and
  /// recorder.
  void rebind(const ModelSnapshot& snapshot);

  obs::DecisionJournal& journal() const { return *journal_; }
  std::shared_ptr<const obs::DecisionJournal> journal_ptr() const {
    return journal_;
  }

  std::shared_ptr<obs::ModelHealthMonitor> model_health() const {
    return health_;
  }

  /// Multi-resolution score history (null when history_raw = 0).
  std::shared_ptr<obs::ScoreHistory> score_history() const {
    return history_;
  }

  /// Attach the incident black box: the recorder watches this stream's
  /// verdict/health sequence and commits `.mhmi` bundles into `store` on an
  /// alarm burst or an OK→degraded health transition. Null store detaches.
  /// The recorder grows the ring to its window; the model-health monitor's
  /// heat row views the recorder's newest row.
  void attach_incidents(const obs::IncidentOptions& options,
                        std::shared_ptr<obs::IncidentStore> store);
  std::shared_ptr<obs::IncidentRecorder> incident_recorder() const {
    return incidents_;
  }

  /// Stamp `note` onto the next recorded interval's journal record
  /// (one-shot; a pending note is replaced). Thread-safe — the retrain
  /// loop annotates from its worker thread while the scoring thread keeps
  /// recording; the hot path pays one relaxed atomic load while no note is
  /// pending.
  void annotate_next(std::string note);

  std::size_t phases() const { return phases_; }

  /// The process-wide `detector.analysis_ns` registry histogram — every
  /// recorded verdict observes into it.
  static obs::Histogram& analysis_time_histogram();

 private:
  /// Registry handles for one hyperperiod phase bucket: drift confined to
  /// one phase of the schedule shows up as that phase's alarms / intervals
  /// ratio diverging in /metrics.
  struct PhaseMetrics {
    obs::Counter* intervals = nullptr;
    obs::Counter* alarms = nullptr;
  };

  std::shared_ptr<obs::IntervalRing> ring_;
  std::shared_ptr<obs::DecisionJournal> journal_;
  std::size_t phases_ = 10;
  Options options_;  ///< Kept so rebind() re-applies the health options.
  std::vector<PhaseMetrics> phase_metrics_;
  std::shared_ptr<obs::ModelHealthMonitor> health_;
  std::shared_ptr<obs::ScoreHistory> history_;
  std::shared_ptr<obs::IncidentRecorder> incidents_;
  std::atomic<bool> note_pending_{false};
  std::mutex note_mu_;       ///< Guards pending_note_ when the flag is set.
  std::string pending_note_;
};

}  // namespace mhm
