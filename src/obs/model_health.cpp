#include "obs/model_health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "obs/export.hpp"
#include "obs/incident.hpp"
#include "obs/interval_ring.hpp"
#include "obs/metrics.hpp"

namespace mhm::obs {

// ---------------------------------------------------------------------------
// P² streaming quantile (always compiled: pure, deterministic math).

P2Quantile::P2Quantile(double p)
    : p_(std::min(0.999, std::max(0.001, p))) {
  step_[0] = 0.0;
  step_[1] = p_ / 2.0;
  step_[2] = p_;
  step_[3] = (1.0 + p_) / 2.0;
  step_[4] = 1.0;
}

double P2Quantile::parabolic(int i, double sign) const {
  return q_[i] +
         sign / (pos_[i + 1] - pos_[i - 1]) *
             ((pos_[i] - pos_[i - 1] + sign) * (q_[i + 1] - q_[i]) /
                  (pos_[i + 1] - pos_[i]) +
              (pos_[i + 1] - pos_[i] - sign) * (q_[i] - q_[i - 1]) /
                  (pos_[i] - pos_[i - 1]));
}

double P2Quantile::linear(int i, int sign) const {
  return q_[i] +
         static_cast<double>(sign) * (q_[i + sign] - q_[i]) /
             (pos_[i + sign] - pos_[i]);
}

void P2Quantile::add(double x) {
  if (n_ < 5) {
    q_[n_++] = x;
    if (n_ == 5) {
      std::sort(q_, q_ + 5);
      for (int i = 0; i < 5; ++i) {
        pos_[i] = static_cast<double>(i + 1);
        want_[i] = 1.0 + 4.0 * step_[i];
      }
    }
    return;
  }

  int k = 0;
  if (x < q_[0]) {
    q_[0] = x;
  } else if (x >= q_[4]) {
    q_[4] = x;
    k = 3;
  } else {
    while (k < 3 && x >= q_[k + 1]) ++k;
  }
  ++n_;
  for (int i = k + 1; i < 5; ++i) pos_[i] += 1.0;
  for (int i = 0; i < 5; ++i) want_[i] += step_[i];

  for (int i = 1; i <= 3; ++i) {
    const double d = want_[i] - pos_[i];
    if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0) ||
        (d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0)) {
      const double sign = d >= 1.0 ? 1.0 : -1.0;
      double qn = parabolic(i, sign);
      if (!(q_[i - 1] < qn && qn < q_[i + 1])) {
        qn = linear(i, sign > 0.0 ? 1 : -1);
      }
      q_[i] = qn;
      pos_[i] += sign;
    }
  }
}

double P2Quantile::value() const {
  if (n_ == 0) return 0.0;
  if (n_ < 5) {
    // Exact (type-7) quantile of the few samples seen so far.
    double sorted[5];
    std::copy(q_, q_ + n_, sorted);
    std::sort(sorted, sorted + n_);
    const double rank = p_ * static_cast<double>(n_ - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min<std::size_t>(lo + 1, n_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }
  return q_[2];
}

// ---------------------------------------------------------------------------
// Drift detectors.

bool CusumDetector::add(double z) {
  s_pos_ = std::max(0.0, s_pos_ + z - k_);
  s_neg_ = std::max(0.0, s_neg_ - z - k_);
  const bool over = s_pos_ > h_ || s_neg_ > h_;
  const bool newly = over && !fired_;
  if (over) fired_ = true;
  return newly;
}

WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z) {
  if (trials == 0) return WilsonInterval{0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (phat + z2 / (2.0 * n)) / denom;
  const double half =
      z / denom * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n));
  return WilsonInterval{std::max(0.0, center - half),
                        std::min(1.0, center + half)};
}

const char* to_string(ModelHealthStatus status) {
  switch (status) {
    case ModelHealthStatus::kOk:
      return "OK";
    case ModelHealthStatus::kDrifting:
      return "DRIFTING";
    case ModelHealthStatus::kMiscalibrated:
      return "MISCALIBRATED";
  }
  return "OK";
}

// ---------------------------------------------------------------------------
// JSON rendering (always compiled: /model bodies and dumps are pure text).

namespace {

std::string json_num(double v) {
  char buf[40];
  if (!std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, "\"%s\"",
                  std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf"));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

}  // namespace

std::string model_health_json(const ModelHealthSnapshot& s) {
  std::string os;
  os.reserve(2048);
  os += "{\"status\":\"" + json_escape(to_string(s.status)) + '"';
  os += ",\"intervals\":" + std::to_string(s.intervals);
  os += ",\"alarms\":" + std::to_string(s.alarms);
  os += ",\"alarm_rate\":" + json_num(s.alarm_rate);
  os += ",\"expected_p\":" + json_num(s.expected_p);
  os += ",\"wilson_low\":" + json_num(s.wilson.low);
  os += ",\"wilson_high\":" + json_num(s.wilson.high);
  os += ",\"calibrated\":";
  os += s.calibrated ? "true" : "false";
  os += ",\"drift\":{\"cusum_pos\":" + json_num(s.cusum_pos);
  os += ",\"cusum_neg\":" + json_num(s.cusum_neg);
  os += ",\"cusum_threshold\":" + json_num(s.cusum_threshold);
  os += ",\"cusum_fired\":";
  os += s.cusum_fired ? "true" : "false";
  os += "},\"score\":{\"mean\":" + json_num(s.score_mean);
  os += ",\"stddev\":" + json_num(s.score_stddev);
  os += ",\"q05\":" + json_num(s.score_q05);
  os += ",\"q50\":" + json_num(s.score_q50);
  os += ",\"q95\":" + json_num(s.score_q95);
  os += ",\"training\":{\"mean\":" + json_num(s.train_mean);
  os += ",\"stddev\":" + json_num(s.train_stddev);
  os += ",\"q05\":" + json_num(s.train_q05);
  os += ",\"q50\":" + json_num(s.train_q50);
  os += ",\"q95\":" + json_num(s.train_q95);
  os += "}},\"spe\":{\"last\":" + json_num(s.spe_last);
  os += ",\"q50\":" + json_num(s.spe_q50);
  os += ",\"q95\":" + json_num(s.spe_q95);
  os += "},\"components\":[";
  for (std::size_t j = 0; j < s.component_weights.size(); ++j) {
    if (j > 0) os += ",";
    const std::uint64_t occ =
        j < s.component_occupancy.size() ? s.component_occupancy[j] : 0;
    os += "{\"weight\":" + json_num(s.component_weights[j]);
    os += ",\"occupancy\":" + std::to_string(occ);
    const double share =
        s.intervals == 0 ? 0.0
                         : static_cast<double>(occ) /
                               static_cast<double>(s.intervals);
    os += ",\"share\":" + json_num(share) + "}";
  }
  os += "],\"events\":[";
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    if (i > 0) os += ",";
    const auto& e = s.events[i];
    os += "{\"interval\":" + std::to_string(e.interval);
    os += ",\"from\":\"" + json_escape(to_string(e.from)) +
          "\",\"to\":\"" + json_escape(to_string(e.to)) +
          "\",\"detail\":\"" + json_escape(e.detail) + "\"}";
  }
  os += "],\"recent_scores\":[";
  for (std::size_t i = 0; i < s.recent_scores.size(); ++i) {
    if (i > 0) os += ",";
    os += json_num(s.recent_scores[i]);
  }
  os += "],\"heat_row\":{\"interval\":" + std::to_string(s.last_row_interval);
  os += ",\"cells\":[";
  for (std::size_t i = 0; i < s.last_row.size(); ++i) {
    if (i > 0) os += ",";
    os += json_num(s.last_row[i]);
  }
  os += "]}}";
  return os;
}

std::string model_health_prometheus(const ModelHealthSnapshot& s) {
  std::string os;
  append_prometheus_gauge(os, "model_health.status",
                          "0 OK, 1 DRIFTING, 2 MISCALIBRATED",
                          static_cast<double>(static_cast<int>(s.status)));
  append_prometheus_gauge(os, "model_health.alarm_rate",
                          "empirical alarm fraction of the live run",
                          s.alarm_rate);
  append_prometheus_gauge(os, "model_health.wilson_low",
                          "lower Wilson bound on the alarm rate",
                          s.wilson.low);
  append_prometheus_gauge(os, "model_health.wilson_high",
                          "upper Wilson bound on the alarm rate",
                          s.wilson.high);
  append_prometheus_gauge(os, "model_health.cusum_pos",
                          "CUSUM upper sum on the standardized score",
                          s.cusum_pos);
  append_prometheus_gauge(os, "model_health.cusum_neg",
                          "CUSUM lower sum on the standardized score",
                          s.cusum_neg);
  append_prometheus_gauge(os, "model_health.score_q05",
                          "P2 sketch of the live score, 5th percentile",
                          s.score_q05);
  append_prometheus_gauge(os, "model_health.score_q50",
                          "P2 sketch of the live score, median", s.score_q50);
  append_prometheus_gauge(os, "model_health.score_q95",
                          "P2 sketch of the live score, 95th percentile",
                          s.score_q95);
  append_prometheus_gauge(os, "model_health.spe_q95",
                          "P2 sketch of the PCA residual, 95th percentile",
                          s.spe_q95);
  for (std::size_t j = 0; j < s.component_occupancy.size(); ++j) {
    const std::string id = std::to_string(j);
    append_prometheus_gauge(
        os, "model_health.occupancy." + id,
        "intervals for which component " + id + " was most responsible",
        static_cast<double>(s.component_occupancy[j]));
  }
  return os;
}

// ---------------------------------------------------------------------------
// Monitor.

#if defined(MHM_OBS_DISABLED)

// Compiled-out build: no state, no locks, no metrics — every method is a
// no-op shell so callers need no #ifs.
struct ModelHealthMonitor::Impl {};
ModelHealthMonitor::ModelHealthMonitor(const std::vector<double>&,
                                       std::vector<double>,
                                       const ModelHealthOptions&) {}
ModelHealthMonitor::~ModelHealthMonitor() = default;
ModelHealthStatus ModelHealthMonitor::observe(double, double, std::size_t,
                                              bool, std::uint64_t) {
  return ModelHealthStatus::kOk;
}
void ModelHealthMonitor::attach_views(std::shared_ptr<const IntervalRing>,
                                      std::size_t,
                                      std::shared_ptr<const IncidentRecorder>) {
}
ModelHealthStatus ModelHealthMonitor::status() const {
  return ModelHealthStatus::kOk;
}
ModelHealthSnapshot ModelHealthMonitor::snapshot() const {
  return ModelHealthSnapshot{};
}

#else

struct ModelHealthMonitor::Impl {
  const ModelHealthOptions opts;
  // Training-time reference, fixed at construction.
  double train_mean = 0.0;
  double train_stddev = 1.0;
  double train_q05 = 0.0;
  double train_q50 = 0.0;
  double train_q95 = 0.0;
  const std::vector<double> weights;

  mutable std::mutex mu;
  P2Quantile q05{0.05};
  P2Quantile q50{0.5};
  P2Quantile q95{0.95};
  P2Quantile spe_q50{0.5};
  P2Quantile spe_q95{0.95};
  double spe_last = 0.0;
  std::uint64_t intervals = 0;
  std::uint64_t alarms = 0;
  double mean = 0.0;  ///< Welford running mean of the live scores.
  double m2 = 0.0;    ///< Welford sum of squared deviations.
  CusumDetector cusum;
  std::vector<std::uint64_t> occupancy;
  WilsonInterval wilson;
  bool miscalibrated = false;
  ModelHealthStatus current = ModelHealthStatus::kOk;
  std::vector<ModelHealthEvent> events;

  Counter& c_drift = Registry::instance().counter(
      "model_health.drift_events", "transitions into DRIFTING");
  Counter& c_breach = Registry::instance().counter(
      "model_health.calibration_breaches", "transitions into MISCALIBRATED");
  std::shared_ptr<const IntervalRing> ring;       ///< recent_scores view.
  std::size_t recent = 0;                         ///< Its length.
  std::shared_ptr<const IncidentRecorder> rows;   ///< heat_row view.

  Impl(const std::vector<double>& training_scores,
       std::vector<double> component_weights, const ModelHealthOptions& o)
      : opts(o),
        weights(std::move(component_weights)),
        cusum(o.cusum_k, o.cusum_h) {
    if (!training_scores.empty()) {
      std::vector<double> sorted = training_scores;
      std::sort(sorted.begin(), sorted.end());
      const double n = static_cast<double>(sorted.size());
      double sum = 0.0;
      for (double v : sorted) sum += v;
      train_mean = sum / n;
      double sq = 0.0;
      for (double v : sorted) {
        const double d = v - train_mean;
        sq += d * d;
      }
      train_stddev = std::sqrt(sq / n);
      const auto at = [&](double p) {
        const double rank = p * (n - 1.0);
        const auto lo = static_cast<std::size_t>(rank);
        const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
        const double frac = rank - static_cast<double>(lo);
        return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
      };
      train_q05 = at(0.05);
      train_q50 = at(0.50);
      train_q95 = at(0.95);
    }
    occupancy.assign(weights.size(), 0);
  }

  /// Detail line for a status transition, e.g.
  /// "cusum s+=0.0 s-=12.3 (h 10)" or "alarm rate 0.08 vs p 0.01".
  std::string describe_locked() const {
    char buf[160];
    if (miscalibrated) {
      std::snprintf(buf, sizeof buf,
                    "alarm rate %.4g outside Wilson [%.4g, %.4g] for p %.4g",
                    intervals == 0
                        ? 0.0
                        : static_cast<double>(alarms) /
                              static_cast<double>(intervals),
                    wilson.low, wilson.high, opts.expected_p);
    } else if (cusum.fired()) {
      std::snprintf(buf, sizeof buf, "cusum s+=%.3g s-=%.3g (h %.3g)",
                    cusum.positive_sum(), cusum.negative_sum(),
                    cusum.threshold());
    } else {
      std::snprintf(buf, sizeof buf, "recovered");
    }
    return buf;
  }
};

ModelHealthMonitor::ModelHealthMonitor(
    const std::vector<double>& training_scores_log10,
    std::vector<double> component_weights, const ModelHealthOptions& options)
    : impl_(std::make_unique<Impl>(training_scores_log10,
                                   std::move(component_weights), options)) {}

ModelHealthMonitor::~ModelHealthMonitor() = default;

ModelHealthStatus ModelHealthMonitor::observe(double log10_density, double spe,
                                              std::size_t pattern, bool alarm,
                                              std::uint64_t interval_index) {
  if (!enabled()) return ModelHealthStatus::kOk;
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lk(im.mu);

  ++im.intervals;
  if (alarm) ++im.alarms;
  im.q05.add(log10_density);
  im.q50.add(log10_density);
  im.q95.add(log10_density);
  im.spe_q50.add(spe);
  im.spe_q95.add(spe);
  im.spe_last = spe;
  const double d = log10_density - im.mean;
  im.mean += d / static_cast<double>(im.intervals);
  im.m2 += d * (log10_density - im.mean);
  // The drift detector skips per-run warmup intervals (cold-start heat maps
  // are extreme outliers that would latch it) and sees a winsorized z so one
  // freak interval cannot latch a false DRIFTING.
  if (interval_index >= im.opts.warmup) {
    const double sd = im.train_stddev > 1e-12 ? im.train_stddev : 1e-12;
    const double z = std::clamp((log10_density - im.train_mean) / sd,
                                -im.opts.z_clamp, im.opts.z_clamp);
    im.cusum.add(z);
  }
  if (pattern < im.occupancy.size()) ++im.occupancy[pattern];

  im.wilson = wilson_interval(im.alarms, im.intervals, im.opts.wilson_z);
  im.miscalibrated =
      im.intervals >= im.opts.min_intervals &&
      (im.opts.expected_p < im.wilson.low ||
       im.opts.expected_p > im.wilson.high);
  const ModelHealthStatus next =
      im.miscalibrated   ? ModelHealthStatus::kMiscalibrated
      : im.cusum.fired() ? ModelHealthStatus::kDrifting
                         : ModelHealthStatus::kOk;
  if (next != im.current) {
    if (next == ModelHealthStatus::kDrifting) im.c_drift.add();
    if (next == ModelHealthStatus::kMiscalibrated) im.c_breach.add();
    if (im.opts.max_events > 0) {
      if (im.events.size() >= im.opts.max_events) {
        im.events.erase(im.events.begin());
      }
      im.events.push_back(ModelHealthEvent{interval_index, im.current, next,
                                           im.describe_locked()});
    }
    im.current = next;
  }

  return im.current;
}

ModelHealthStatus ModelHealthMonitor::status() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->current;
}

void ModelHealthMonitor::attach_views(
    std::shared_ptr<const IntervalRing> ring, std::size_t recent,
    std::shared_ptr<const IncidentRecorder> rows) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->ring = std::move(ring);
  impl_->recent = recent;
  impl_->rows = std::move(rows);
}

ModelHealthSnapshot ModelHealthMonitor::snapshot() const {
  const Impl& im = *impl_;
  std::unique_lock<std::mutex> lk(im.mu);
  ModelHealthSnapshot s;
  s.status = im.current;
  s.intervals = im.intervals;
  s.alarms = im.alarms;
  s.alarm_rate = im.intervals == 0
                     ? 0.0
                     : static_cast<double>(im.alarms) /
                           static_cast<double>(im.intervals);
  s.expected_p = im.opts.expected_p;
  s.wilson = im.wilson;
  s.calibrated = !im.miscalibrated;
  s.cusum_pos = im.cusum.positive_sum();
  s.cusum_neg = im.cusum.negative_sum();
  s.cusum_threshold = im.cusum.threshold();
  s.cusum_fired = im.cusum.fired();
  s.score_mean = im.mean;
  s.score_stddev =
      im.intervals < 2
          ? 0.0
          : std::sqrt(im.m2 / static_cast<double>(im.intervals));
  s.score_q05 = im.q05.value();
  s.score_q50 = im.q50.value();
  s.score_q95 = im.q95.value();
  s.train_mean = im.train_mean;
  s.train_stddev = im.train_stddev;
  s.train_q05 = im.train_q05;
  s.train_q50 = im.train_q50;
  s.train_q95 = im.train_q95;
  s.spe_last = im.spe_last;
  s.spe_q50 = im.spe_q50.value();
  s.spe_q95 = im.spe_q95.value();
  s.component_weights = im.weights;
  s.component_occupancy = im.occupancy;
  s.events = im.events;
  const std::shared_ptr<const IntervalRing> ring = im.ring;
  const std::size_t recent = im.recent;
  const std::shared_ptr<const IncidentRecorder> rows = im.rows;
  lk.unlock();  // The views take their own locks.
  if (ring != nullptr) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex());
    for (std::uint64_t seq = ring->first(recent); seq < ring->total(); ++seq) {
      s.recent_scores.push_back(ring->at(seq).score);
    }
  }
  if (rows != nullptr) {
    IncidentEntry newest = rows->newest();
    if (!newest.row.empty()) {
      s.last_row = std::move(newest.row);
      s.last_row_interval = newest.interval;
    }
  }
  return s;
}

#endif  // MHM_OBS_DISABLED

}  // namespace mhm::obs
