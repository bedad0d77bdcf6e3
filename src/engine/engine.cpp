#include "engine/engine.hpp"

#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/model_health.hpp"
#include "obs/prof.hpp"

namespace mhm::engine {

namespace {

struct EngineMetrics {
  obs::Gauge& model_version = obs::Registry::instance().gauge(
      "engine.model_version", "version of the currently published model");
  obs::Counter& model_swaps = obs::Registry::instance().counter(
      "engine.model_swaps", "hot model swaps published by swap_model()");
  obs::Counter& sessions = obs::Registry::instance().counter(
      "engine.sessions_opened", "scoring sessions vended by new_session()");
};

EngineMetrics& engine_metrics() {
  static EngineMetrics m;
  return m;
}

void validate_snapshot(const ModelSnapshot& snapshot) {
  if (snapshot.gmm.dimension() != snapshot.pca.components()) {
    throw ConfigError(
        "DetectionEngine: GMM dimension does not match the eigenmemory "
        "count");
  }
}

}  // namespace

DetectionEngine::DetectionEngine(
    std::shared_ptr<const ModelSnapshot> snapshot)
    : shared_(std::make_shared<detail::EngineShared>()) {
  if (snapshot == nullptr) {
    throw ConfigError("DetectionEngine: null model snapshot");
  }
  validate_snapshot(*snapshot);
  engine_metrics().model_version.set(
      static_cast<double>(snapshot->version));
  shared_->current = std::move(snapshot);
}

void DetectionEngine::swap_model(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  if (snapshot == nullptr) {
    throw ConfigError("DetectionEngine::swap_model: null model snapshot");
  }
  validate_snapshot(*snapshot);
  std::lock_guard<std::mutex> lk(shared_->mu);
  if (snapshot->pca.input_dim() != shared_->current->pca.input_dim()) {
    throw ConfigError(
        "DetectionEngine::swap_model: new model expects a different cell "
        "count (L) than the running one");
  }
  EngineMetrics& m = engine_metrics();
  m.model_version.set(static_cast<double>(snapshot->version));
  m.model_swaps.add();
  shared_->current = std::move(snapshot);
  // Publish after the pointer is in place: a session observing the new
  // epoch is guaranteed to read the new snapshot under the mutex.
  shared_->epoch.fetch_add(1, std::memory_order_release);
}

std::shared_ptr<const ModelSnapshot> DetectionEngine::current_model() const {
  std::lock_guard<std::mutex> lk(shared_->mu);
  return shared_->current;
}

Session DetectionEngine::new_session(const SessionOptions& options) const {
  engine_metrics().sessions.add();
  return Session(shared_, options);
}

Session::Session(std::shared_ptr<detail::EngineShared> shared,
                 const SessionOptions& options)
    : shared_(std::move(shared)) {
  std::lock_guard<std::mutex> lk(shared_->mu);
  snap_ = shared_->current;
  epoch_ = shared_->epoch.load(std::memory_order_acquire);
  observer_ = std::make_unique<StreamObserver>(*snap_, options);
  if (options.clean_window_capacity > 0) {
    window_ = std::make_shared<NormalWindow>(options.clean_window_capacity);
  }
}

void Session::pick_up_model(std::uint64_t interval_index) {
  if (shared_->epoch.load(std::memory_order_acquire) == epoch_) return;
  std::shared_ptr<const ModelSnapshot> fresh;
  std::uint64_t fresh_epoch;
  {
    std::lock_guard<std::mutex> lk(shared_->mu);
    fresh = shared_->current;
    fresh_epoch = shared_->epoch.load(std::memory_order_acquire);
  }
  transitions_.push_back(ModelTransition{.interval_index = interval_index,
                                         .from_version = snap_->version,
                                         .to_version = fresh->version});
  // The health baseline belongs to the model being scored with: rebind
  // builds a fresh monitor from the new snapshot's validation scores.
  observer_->rebind(*fresh);
  snap_ = std::move(fresh);
  epoch_ = fresh_epoch;
}

Verdict Session::analyze(std::span<const double> raw,
                         std::uint64_t interval_index) {
  // The swap is adopted before this map is scored, so no map is ever
  // dropped or scored against a retired snapshot after the boundary.
  OBS_SCOPE(kAnalyze);
  pick_up_model(interval_index);
  const Verdict v = score_snapshot(*snap_, raw, interval_index, scratch_);
  OBS_SCOPE(kScoreObserve);
  observe(v, raw);
  obs::mark_analysis();
  return v;
}

Verdict Session::analyze(const HeatMap& map) {
  // Same body, scored straight from the counts: the projection pass leaves
  // the double row in scratch_.raw for the observer.
  OBS_SCOPE(kAnalyze);
  pick_up_model(map.interval_index);
  const Verdict v = score_snapshot(*snap_, map, scratch_);
  OBS_SCOPE(kScoreObserve);
  observe(v, scratch_.raw);
  obs::mark_analysis();
  return v;
}

void Session::observe(const Verdict& v, std::span<const double> raw) {
  const obs::ModelHealthStatus status =
      observer_->record(*snap_, v, raw, scratch_.reduced);
  if (window_ != nullptr) {
    window_->offer(raw, v.interval_index, v.anomalous, status);
  }
  if (status_hook_) status_hook_(v.interval_index, status);
}

std::vector<Verdict> Session::run(IntervalSource& source) {
  std::vector<Verdict> verdicts;
  while (auto item = source.next()) {
    verdicts.push_back(analyze(item->map));
  }
  return verdicts;
}

void DetectionEngine::analyze_shard(std::span<Session* const> sessions,
                                    std::span<const std::span<const double>> raws,
                                    std::span<const std::uint64_t> interval_indices,
                                    ShardWorkspace& workspace,
                                    std::vector<Verdict>* verdicts) const {
  MHM_ASSERT(sessions.size() == raws.size() &&
                 sessions.size() == interval_indices.size(),
             "analyze_shard: sessions/raws/intervals must be parallel");
  if (sessions.empty()) return;

  // One analyze umbrella per shard call; the serial-fallback sessions open
  // nested analyze scopes that the profiler records only at this outermost
  // level.
  OBS_SCOPE(kAnalyze);

  // Gather: interval-boundary model pickup per session, in session order —
  // exactly the check each session's own analyze() would have run first.
  const ModelSnapshot* model;
  bool homogeneous = true;
  {
    OBS_SCOPE(kShardGather);
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      sessions[i]->pick_up_model(interval_indices[i]);
    }
    model = sessions.front()->snap_.get();
    for (Session* s : sessions) homogeneous &= (s->snap_.get() == model);
  }
  if (!homogeneous) {
    // A swap_model() landed between two pickups of the gather loop, so the
    // shard spans two model versions. Score serially per session — the
    // serial path is bit-identical, just unbatched.
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const Verdict v = sessions[i]->analyze(raws[i], interval_indices[i]);
      if (verdicts != nullptr) verdicts->push_back(v);
    }
    return;
  }

  {
    OBS_SCOPE(kShardGather);
    workspace.batch.clear(model->pca.input_dim());
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      workspace.batch.push(raws[i], interval_indices[i]);
    }
  }
  score_snapshot_batch(*model, workspace.batch, workspace.scratch);

  // Scatter in session order: each verdict flows through its own session's
  // observer exactly as its serial analyze() would have recorded it.
  OBS_SCOPE(kShardScatter);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    Session& s = *sessions[i];
    const Verdict v = workspace.batch.verdict(i);
    workspace.batch.extract_reduced(i, s.scratch_.reduced);
    s.observe(v, raws[i]);
    if (verdicts != nullptr) verdicts->push_back(v);
  }
  obs::mark_analysis();
}

std::size_t DetectionEngine::pump_shard(std::span<Session* const> sessions,
                                        std::span<IntervalSource* const> sources,
                                        ShardWorkspace& workspace,
                                        std::vector<Verdict>* verdicts) const {
  MHM_ASSERT(sessions.size() == sources.size(),
             "pump_shard: sessions/sources must be parallel");
  if (workspace.raw_rows.size() < sessions.size()) {
    workspace.raw_rows.resize(sessions.size());
  }
  workspace.live_sessions.clear();
  workspace.live_raws.clear();
  workspace.live_intervals.clear();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    auto item = sources[i]->next();
    if (!item.has_value()) continue;
    const std::size_t slot = workspace.live_sessions.size();
    item->map.as_vector_into(workspace.raw_rows[slot]);
    workspace.live_sessions.push_back(sessions[i]);
    workspace.live_raws.push_back(workspace.raw_rows[slot]);
    workspace.live_intervals.push_back(item->map.interval_index);
  }
  if (!workspace.live_sessions.empty()) {
    analyze_shard(workspace.live_sessions, workspace.live_raws,
                  workspace.live_intervals, workspace, verdicts);
  }
  return workspace.live_sessions.size();
}

}  // namespace mhm::engine
