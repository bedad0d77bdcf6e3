#include "engine/retrain.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/detector.hpp"
#include "obs/metrics.hpp"

namespace mhm::engine {

namespace {

struct RetrainMetrics {
  obs::Counter& retrains = obs::Registry::instance().counter(
      "engine.retrains", "candidate models published by the retrain loop");
  obs::Counter& rejected = obs::Registry::instance().counter(
      "engine.retrain_rejected",
      "retrain attempts rejected by a validation gate");
  obs::Gauge& state = obs::Registry::instance().gauge(
      "engine.retrain_state",
      "retrain policy state (0 OK, 1 DRIFTING, 2 TRAINING, 3 VALIDATING, "
      "4 COOLDOWN)");
};

RetrainMetrics& retrain_metrics() {
  static RetrainMetrics m;
  return m;
}

std::string jnum(double v) {
  char buf[40];
  if (!std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, "\"%s\"",
                  std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf"));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const char* to_string(RetrainState state) {
  switch (state) {
    case RetrainState::kOk: return "OK";
    case RetrainState::kDrifting: return "DRIFTING";
    case RetrainState::kTraining: return "TRAINING";
    case RetrainState::kValidating: return "VALIDATING";
    case RetrainState::kCooldown: return "COOLDOWN";
  }
  return "?";
}

RetrainManager::RetrainManager(DetectionEngine engine,
                               std::shared_ptr<NormalWindow> window,
                               std::shared_ptr<ModelRegistry> registry,
                               const Options& options)
    : engine_(std::move(engine)),
      window_(std::move(window)),
      registry_(std::move(registry)),
      options_(options) {
  if (window_ == nullptr) {
    throw ConfigError("RetrainManager: null NormalWindow");
  }
  if (options_.calibration_fraction <= 0.0 ||
      options_.holdout_fraction <= 0.0 ||
      options_.calibration_fraction + options_.holdout_fraction >= 0.9) {
    throw ConfigError(
        "RetrainManager: calibration/holdout fractions must be positive and "
        "leave most of the window for training");
  }
  retrain_metrics().state.set(0.0);
  if (options_.background) {
    worker_ = std::thread([this] { worker_loop(); });
  }
}

RetrainManager::~RetrainManager() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void RetrainManager::set_publish_hook(
    std::function<void(const RetrainReport&)> hook) {
  std::lock_guard<std::mutex> lk(mu_);
  publish_hook_ = std::move(hook);
}

void RetrainManager::set_state(RetrainState state) {
  state_ = state;
  retrain_metrics().state.set(static_cast<double>(state));
}

void RetrainManager::note(std::uint64_t interval_index,
                          obs::ModelHealthStatus status) {
  bool run_inline = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (cooldown_left_ > 0) {
      --cooldown_left_;
      if (cooldown_left_ == 0 &&
          (state_ == RetrainState::kCooldown)) {
        set_state(RetrainState::kOk);
      }
      return;
    }
    if (state_ == RetrainState::kTraining ||
        state_ == RetrainState::kValidating || attempt_running_ ||
        trigger_pending_) {
      return;  // One attempt at a time; notes during a run are dropped.
    }
    if (status == obs::ModelHealthStatus::kOk) {
      streak_ = 0;
      if (state_ == RetrainState::kDrifting) set_state(RetrainState::kOk);
      return;
    }
    ++streak_;
    if (state_ == RetrainState::kOk) set_state(RetrainState::kDrifting);
    if (streak_ < options_.sustain) return;
    // Sustained drift: arm one attempt.
    streak_ = 0;
    trigger_interval_ = interval_index;
    if (options_.background) {
      trigger_pending_ = true;
    } else {
      run_inline = true;
    }
  }
  if (run_inline) {
    run_attempt(interval_index);
  } else {
    cv_.notify_all();
  }
}

RetrainReport RetrainManager::retrain_now(std::uint64_t trigger_interval) {
  return run_attempt(trigger_interval);
}

void RetrainManager::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] { return !trigger_pending_ && !attempt_running_; });
}

void RetrainManager::worker_loop() {
  for (;;) {
    std::uint64_t trigger;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || trigger_pending_; });
      if (stop_) return;
      trigger_pending_ = false;
      trigger = trigger_interval_;
    }
    run_attempt(trigger);
  }
}

RetrainReport RetrainManager::run_attempt(std::uint64_t trigger_interval) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    attempt_running_ = true;
    set_state(RetrainState::kTraining);
  }
  const auto t0 = std::chrono::steady_clock::now();

  RetrainReport report;
  report.trigger_interval = trigger_interval;

  // Snapshot the running model's shape once: the candidate inherits its
  // subspace size, mixture size and quantile p unless overridden.
  const auto current = engine_.current_model();
  const std::size_t k = options_.components != 0
                            ? options_.components
                            : current->pca.components();
  const std::size_t j = options_.gmm_components != 0
                            ? options_.gmm_components
                            : current->gmm.component_count();
  const double p = current->primary.p;
  report.expected_p = p;

  // One consistent snapshot of the reservoir; the session keeps appending
  // to the live window while we train on the copy.
  const auto rows = window_->last();
  report.window_rows = rows.size();

  const auto reject = [&](const char* reason) {
    report.accepted = false;
    report.reason = reason;
    report.train_seconds = seconds_since(t0);
    retrain_metrics().rejected.add();
    std::lock_guard<std::mutex> lk(mu_);
    ++rejected_;
    last_ = report;
    attempt_running_ = false;
    streak_ = 0;
    set_state(RetrainState::kOk);
    cv_.notify_all();
    return report;
  };

  const std::size_t n = rows.size();
  const auto holdout_n = static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * options_.holdout_fraction));
  const auto calib_n = static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * options_.calibration_fraction));
  const std::size_t train_n = n - holdout_n - calib_n;
  if (n < options_.min_window || train_n <= k || calib_n < 8 ||
      holdout_n < 8) {
    return reject("window_too_small");
  }
  report.train_rows = train_n;
  report.calibration_rows = calib_n;
  report.holdout_rows = holdout_n;

  // Chronological split, oldest → newest: train on the oldest rows,
  // calibrate θ_p on the middle, judge the candidate on the newest slice —
  // the slice closest to what it will score next.
  const std::vector<std::vector<double>> train(
      rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(train_n));
  const std::vector<std::vector<double>> calib(
      rows.begin() + static_cast<std::ptrdiff_t>(train_n),
      rows.begin() + static_cast<std::ptrdiff_t>(train_n + calib_n));
  const std::vector<std::vector<double>> holdout(
      rows.begin() + static_cast<std::ptrdiff_t>(train_n + calib_n),
      rows.end());

  // --- TRAINING: the offline trainer on the oldest slice, θ_p on the
  // middle one ---
  std::shared_ptr<const ModelSnapshot> candidate;
  try {
    AnomalyDetector::Options opts;
    opts.pca.components = std::min(k, std::min(train_n, train.front().size()));
    opts.gmm.components = std::min(j, std::max<std::size_t>(1, train_n / 4));
    opts.gmm.restarts = options_.gmm_restarts;
    opts.primary_p = p;
    candidate = AnomalyDetector::train(train, calib, opts).snapshot();
  } catch (const Error&) {
    return reject("train_failed");
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    set_state(RetrainState::kValidating);
  }

  // --- VALIDATING: score the held-out slice as a stream ---
  const auto reduced_hold = candidate->pca.project_all(holdout);
  std::vector<double> ln_hold;
  candidate->gmm.total_log_likelihood(reduced_hold, &ln_hold);
  std::vector<double> hold_scores(ln_hold.size());
  std::uint64_t hold_alarms = 0;
  for (std::size_t i = 0; i < ln_hold.size(); ++i) {
    hold_scores[i] = ln_hold[i] / kLn10;
    if (hold_scores[i] < candidate->primary.log10_value) ++hold_alarms;
  }
  report.holdout_alarm_rate =
      static_cast<double>(hold_alarms) / static_cast<double>(holdout_n);

  // Gate 1: held-out alarm rate within the Wilson interval of the
  // *achievable* quantile — the rate an honestly-calibrated candidate could
  // plausibly produce on clean traffic at this sample size. An empirical
  // quantile can't resolve below 1/(n+1): with p under that, θ_p sits at
  // the calibration minimum and a fresh clean sample lands below it with
  // probability ≈ 1/(n+1), so judging against the raw p would reject every
  // honest candidate whenever the calibration slice is small.
  const double p_eff =
      std::max(p, 1.0 / (static_cast<double>(calib_n) + 1.0));
  report.expected_p = p_eff;
  const obs::WilsonInterval wilson =
      obs::wilson_interval(hold_alarms, holdout_n, options_.wilson_z);
  report.wilson_low = wilson.low;
  report.wilson_high = wilson.high;
  if (p_eff < wilson.low || p_eff > wilson.high) {
    return reject("alarm_rate");
  }

  // Gate 2: score-scale sanity — the held-out median must sit near the
  // calibration median; a large shift means the window straddles a
  // behaviour change and the candidate is already stale.
  const double q50_calib =
      quantile(candidate->calibrator.validation_scores(), 0.5);
  const double q50_hold = quantile(hold_scores, 0.5);
  report.quantile_shift = std::abs(q50_hold - q50_calib);
  if (!std::isfinite(report.quantile_shift) ||
      report.quantile_shift > options_.quantile_margin) {
    return reject("quantile_shift");
  }

  // --- PUBLISH ---
  std::uint64_t version = current->version + 1;
  if (registry_ != nullptr) {
    version = registry_->save(DetectorModel::from_snapshot(*candidate));
  }
  auto snapshot = std::make_shared<ModelSnapshot>(*candidate);
  snapshot->version = version;
  try {
    engine_.swap_model(std::move(snapshot));
  } catch (const Error&) {
    return reject("swap_failed");
  }
  // Post-publish behaviour trains the *next* candidate: drop pre-swap rows.
  window_->clear();

  report.accepted = true;
  report.reason = "published";
  report.version = version;
  report.train_seconds = seconds_since(t0);
  retrain_metrics().retrains.add();

  std::function<void(const RetrainReport&)> hook;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++published_;
    last_ = report;
    streak_ = 0;
    cooldown_left_ = options_.cooldown;
    set_state(options_.cooldown > 0 ? RetrainState::kCooldown
                                    : RetrainState::kOk);
    hook = publish_hook_;
  }
  // The hook runs outside the lock (it may call back into json()/state())
  // but before the attempt is marked finished, so drain() covers it — a
  // caller that drains is guaranteed the dashboards/annotations the hook
  // wires up are in place.
  if (hook) hook(report);
  {
    std::lock_guard<std::mutex> lk(mu_);
    attempt_running_ = false;
  }
  cv_.notify_all();
  return report;
}

RetrainState RetrainManager::state() const {
  std::lock_guard<std::mutex> lk(mu_);
  return state_;
}

RetrainReport RetrainManager::last_report() const {
  std::lock_guard<std::mutex> lk(mu_);
  return last_;
}

std::uint64_t RetrainManager::published() const {
  std::lock_guard<std::mutex> lk(mu_);
  return published_;
}

std::uint64_t RetrainManager::rejected_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rejected_;
}

std::string RetrainManager::json() const {
  RetrainState state;
  RetrainReport last;
  std::uint64_t published;
  std::uint64_t rejected;
  std::uint64_t cooldown_left;
  std::uint64_t streak;
  {
    std::lock_guard<std::mutex> lk(mu_);
    state = state_;
    last = last_;
    published = published_;
    rejected = rejected_;
    cooldown_left = cooldown_left_;
    streak = streak_;
  }
  std::string os;
  os.reserve(512);
  os += "{\"state\":\"";
  os += to_string(state);
  os += "\",\"published\":" + std::to_string(published);
  os += ",\"rejected\":" + std::to_string(rejected);
  os += ",\"drift_streak\":" + std::to_string(streak);
  os += ",\"sustain\":" + std::to_string(options_.sustain);
  os += ",\"cooldown_remaining\":" + std::to_string(cooldown_left);
  os += ",\"window\":{\"size\":" + std::to_string(window_->size());
  os += ",\"capacity\":" + std::to_string(window_->capacity());
  os += ",\"accepted\":" + std::to_string(window_->accepted());
  os += ",\"rejected\":" + std::to_string(window_->rejected());
  os += "}";
  if (!last.reason.empty()) {
    os += ",\"last\":{\"accepted\":";
    os += last.accepted ? "true" : "false";
    os += ",\"reason\":\"" + last.reason;
    os += "\",\"version\":" + std::to_string(last.version);
    os += ",\"trigger_interval\":" + std::to_string(last.trigger_interval);
    os += ",\"window_rows\":" + std::to_string(last.window_rows);
    os += ",\"train_rows\":" + std::to_string(last.train_rows);
    os += ",\"holdout_rows\":" + std::to_string(last.holdout_rows);
    os += ",\"holdout_alarm_rate\":" + jnum(last.holdout_alarm_rate);
    os += ",\"wilson_low\":" + jnum(last.wilson_low);
    os += ",\"wilson_high\":" + jnum(last.wilson_high);
    os += ",\"expected_p\":" + jnum(last.expected_p);
    os += ",\"quantile_shift\":" + jnum(last.quantile_shift);
    os += ",\"train_seconds\":" + jnum(last.train_seconds);
    os += "}";
  }
  os += "}";
  return os;
}

}  // namespace mhm::engine
