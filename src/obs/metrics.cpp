#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>

namespace mhm::obs {

#if !defined(MHM_OBS_DISABLED)
namespace detail {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag = [] {
    const char* env = std::getenv("MHM_OBS");
    return !(env != nullptr && env[0] == '0' && env[1] == '\0');
  }();
  return flag;
}

}  // namespace detail

namespace {

/// 0 = no analysis yet.
std::atomic<std::uint64_t>& analysis_stamp() {
  static std::atomic<std::uint64_t> ns{0};
  return ns;
}

}  // namespace

void mark_analysis() {
  if (!enabled()) return;
  analysis_stamp().store(steady_ns(), std::memory_order_relaxed);
}

std::uint64_t last_analysis_ns() {
  return analysis_stamp().load(std::memory_order_relaxed);
}

double last_analysis_age_seconds() {
  const std::uint64_t last = last_analysis_ns();
  if (last == 0) return -1.0;
  return static_cast<double>(steady_ns() - last) * 1e-9;
}
#endif

std::size_t thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      cells_(kShards * (bounds_.size() + 1)) {
  if (bounds_.empty()) {
    throw std::logic_error("obs::Histogram: needs at least one bucket bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::logic_error("obs::Histogram: bounds must be ascending");
  }
}

void Histogram::observe(double v) {
  if (!enabled()) return;
  const std::size_t shard = thread_shard();
  // Linear scan: bucket lists are short (≤ ~20) and usually hit early.
  std::size_t b = 0;
  while (b < bounds_.size() && v > bounds_[b]) ++b;
  cells_[shard * (bounds_.size() + 1) + b].v.fetch_add(
      1, std::memory_order_relaxed);
  count_[shard].v.fetch_add(1, std::memory_order_relaxed);
  sum_[shard].v.fetch_add(v, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::size_t b = 0; b < out.size(); ++b) {
      out[b] += cells_[s * out.size() + b].v.load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& c : count_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const auto& s : sum_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Histogram::reset() {
  for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  for (auto& c : count_) c.v.store(0, std::memory_order_relaxed);
  for (auto& s : sum_) s.v.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static Registry* reg = new Registry();  // Leaked: outlives static dtors.
  return *reg;
}

Counter& Registry::counter(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry e;
    e.type = MetricSnapshot::Type::kCounter;
    e.help = std::string(help);
    e.counter = std::make_unique<Counter>();
    it = metrics_.emplace(std::string(name), std::move(e)).first;
  } else if (it->second.type != MetricSnapshot::Type::kCounter) {
    throw std::logic_error("obs::Registry: '" + std::string(name) +
                           "' already registered with a different type");
  }
  return *it->second.counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry e;
    e.type = MetricSnapshot::Type::kGauge;
    e.help = std::string(help);
    e.gauge = std::make_unique<Gauge>();
    it = metrics_.emplace(std::string(name), std::move(e)).first;
  } else if (it->second.type != MetricSnapshot::Type::kGauge) {
    throw std::logic_error("obs::Registry: '" + std::string(name) +
                           "' already registered with a different type");
  }
  return *it->second.gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> upper_bounds,
                               std::string_view help) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry e;
    e.type = MetricSnapshot::Type::kHistogram;
    e.help = std::string(help);
    e.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
    it = metrics_.emplace(std::string(name), std::move(e)).first;
  } else if (it->second.type != MetricSnapshot::Type::kHistogram) {
    throw std::logic_error("obs::Registry: '" + std::string(name) +
                           "' already registered with a different type");
  }
  return *it->second.histogram;
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.help = entry.help;
    snap.type = entry.type;
    switch (entry.type) {
      case MetricSnapshot::Type::kCounter:
        snap.value = static_cast<double>(entry.counter->value());
        break;
      case MetricSnapshot::Type::kGauge:
        snap.value = entry.gauge->value();
        break;
      case MetricSnapshot::Type::kHistogram:
        snap.upper_bounds = entry.histogram->upper_bounds();
        snap.bucket_counts = entry.histogram->bucket_counts();
        snap.count = entry.histogram->count();
        snap.sum = entry.histogram->sum();
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace mhm::obs
