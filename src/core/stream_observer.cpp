#include "core/stream_observer.hpp"

#include <algorithm>
#include <string>

#include "obs/history.hpp"
#include "obs/metrics.hpp"
#include "obs/model_health.hpp"

namespace mhm {

namespace {

struct DetectorMetrics {
  obs::Counter& intervals = obs::Registry::instance().counter(
      "detector.intervals_analyzed", "MHM intervals scored by analyze()");
  obs::Counter& alarms = obs::Registry::instance().counter(
      "detector.alarms", "intervals below the primary threshold");
  // Log-spaced bounds, ~4 per decade (10^0.25 steps) from 1 µs to 100 ms:
  // the analyze path sits near 10 µs, and decade-wide buckets put its whole
  // distribution in one bin — quarter-decade resolution separates the ~6 µs
  // batch-amortized path from the ~10 µs serial one and resolves tail
  // regressions a decade bucket would hide.
  obs::Histogram& analysis_ns = obs::Registry::instance().histogram(
      "detector.analysis_ns",
      {1.00e3, 1.78e3, 3.16e3, 5.62e3, 1.00e4, 1.78e4, 3.16e4, 5.62e4,
       1.00e5, 1.78e5, 3.16e5, 5.62e5, 1.00e6, 1.78e6, 3.16e6, 5.62e6,
       1.00e7, 1.78e7, 3.16e7, 5.62e7, 1.00e8},
      "wall-clock nanoseconds of projection + density per interval");
};

DetectorMetrics& detector_metrics() {
  static DetectorMetrics m;
  return m;
}

std::shared_ptr<obs::ModelHealthMonitor> build_health(
    const ModelSnapshot& snapshot, const StreamObserver::Options& options) {
  // The monitor's training baseline is the same validation-score vector
  // θ_p was calibrated from — persisted by model_io, so assembled models
  // get a monitor too. No re-scoring anywhere.
  if (!options.attach_health) return nullptr;
  obs::ModelHealthOptions mh;
  mh.expected_p = snapshot.primary.p;
  mh.max_events = options.health_max_events;
  std::vector<double> weights;
  weights.reserve(snapshot.gmm.component_count());
  for (const auto& c : snapshot.gmm.components()) weights.push_back(c.weight);
  return std::make_shared<obs::ModelHealthMonitor>(
      snapshot.calibrator.validation_scores(), std::move(weights), mh);
}

}  // namespace

obs::Histogram& StreamObserver::analysis_time_histogram() {
  return detector_metrics().analysis_ns;
}

StreamObserver::StreamObserver(const ModelSnapshot& snapshot,
                               const Options& options)
    : phases_(std::max<std::size_t>(1, options.phases)), options_(options) {
  const std::size_t journal_capacity =
      options.journal_capacity != 0 ? options.journal_capacity
                                    : obs::DecisionJournal::kDefaultCapacity;
  ring_ = std::make_shared<obs::IntervalRing>(
      std::max(journal_capacity, options.history_raw));
  journal_ = std::make_shared<obs::DecisionJournal>(
      ring_, journal_capacity, phases_, snapshot.pca.components(),
      options.top_cells);
  auto& registry = obs::Registry::instance();
  phase_metrics_.reserve(phases_);
  for (std::size_t p = 0; p < phases_; ++p) {
    const std::string suffix = std::to_string(p);
    PhaseMetrics pm;
    pm.intervals = &registry.counter(
        "detector.intervals_by_phase." + suffix,
        "intervals analyzed at hyperperiod phase " + suffix);
    pm.alarms = &registry.counter(
        "detector.alarms_by_phase." + suffix,
        "alarms raised at hyperperiod phase " + suffix);
    phase_metrics_.push_back(pm);
  }
  if (options_.history_raw > 0) {
    obs::HistoryOptions ho;
    ho.raw_capacity = options_.history_raw;
    ho.bin_capacity = options_.history_bins;
    ho.tiers = options_.history_tiers;
    history_ = std::make_shared<obs::ScoreHistory>(ring_, ho);
  }
  rebind(snapshot);
}

void StreamObserver::rebind(const ModelSnapshot& snapshot) {
  // The health baseline belongs to the model being scored with; the ring
  // and the incident recorder deliberately span the swap — the
  // model_version column records where the transition happened.
  health_ = build_health(snapshot, options_);
  if (health_ != nullptr) {
    health_->attach_views(ring_, options_.history_raw, incidents_);
  }
}

void StreamObserver::annotate_next(std::string note) {
  std::lock_guard<std::mutex> lk(note_mu_);
  pending_note_ = std::move(note);
  note_pending_.store(true, std::memory_order_release);
}

void StreamObserver::attach_incidents(
    const obs::IncidentOptions& options,
    std::shared_ptr<obs::IncidentStore> store) {
  incidents_ = store != nullptr ? std::make_shared<obs::IncidentRecorder>(
                                      options, std::move(store), ring_)
                                : nullptr;
  if (health_ != nullptr) {
    health_->attach_views(ring_, options_.history_raw, incidents_);
  }
}

obs::ModelHealthStatus StreamObserver::record(const ModelSnapshot& snapshot,
                                              const Verdict& verdict,
                                              std::span<const double> raw,
                                              std::span<const double> reduced) {
  if (!obs::enabled()) return obs::ModelHealthStatus::kOk;
  DetectorMetrics& m = detector_metrics();
  m.intervals.add();
  if (verdict.anomalous) m.alarms.add();
  m.analysis_ns.observe(static_cast<double>(verdict.analysis_time.count()));

  // Hyperperiod-phase-bucketed alarm telemetry: one or two counter adds
  // per interval, cached handles only. The per-phase alarm rate is
  // alarms_by_phase / intervals_by_phase, derived by the reader.
  const PhaseMetrics& pm = phase_metrics_[verdict.interval_index % phases_];
  pm.intervals->add();
  if (verdict.anomalous) pm.alarms->add();

  // Model-health monitor: consumes the score/SPE/pattern the scoring call
  // already computed — the hook adds no E-step work. The returned status
  // is stored in the ring row below without a second lock acquisition.
  obs::ModelHealthStatus status = obs::ModelHealthStatus::kOk;
  if (health_ != nullptr) {
    status = health_->observe(verdict.log10_density, verdict.spe,
                              verdict.nearest_pattern, verdict.anomalous,
                              verdict.interval_index);
  }

  std::string note;
  if (note_pending_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(note_mu_);
    note = std::move(pending_note_);
    pending_note_.clear();
    note_pending_.store(false, std::memory_order_release);
  }
  const CellBaseline* bl = snapshot.baseline.get();
  const std::span<const double> bl_mean =
      bl != nullptr ? std::span<const double>(bl->mean)
                    : std::span<const double>{};
  const std::span<const double> bl_stddev =
      bl != nullptr ? std::span<const double>(bl->stddev)
                    : std::span<const double>{};
  const obs::IntervalRow row{
      .interval = verdict.interval_index,
      .score = verdict.log10_density,
      .spe = verdict.spe,
      .threshold = snapshot.primary.log10_value,
      .alarm = verdict.anomalous,
      .status = static_cast<std::uint8_t>(status),
      .pattern = static_cast<std::uint32_t>(verdict.nearest_pattern),
      .model_version = verdict.model_version};
  {
    std::lock_guard<std::mutex> lk(ring_->mutex());
    ring_->push(row);
    journal_->record_locked(reduced, raw, bl_mean, bl_stddev, note);
    if (history_ != nullptr) history_->fold_locked(row);
  }
  if (incidents_ != nullptr) incidents_->note(raw, bl_mean, bl_stddev);
  return status;
}

}  // namespace mhm
