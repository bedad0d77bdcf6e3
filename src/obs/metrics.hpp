#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace mhm::obs {

/// Process-wide registry of named counters, gauges and fixed-bucket
/// histograms — the always-on telemetry layer (netdata-style cheap
/// counters).
///
/// Increments are lock-free: every metric keeps `kShards` cache-line-padded
/// atomic slots and a thread adds to the slot picked by its (stable)
/// thread-local shard index. Export folds the shards in slot order 0..15 —
/// counter and histogram cells are integers, so the folded value is the
/// exact event count regardless of which thread landed where. Nothing the
/// registry records ever feeds back into a computation, which is how the
/// tier-1 determinism guarantees stay untouched.
///
/// Handles returned by the registry are stable for the process lifetime;
/// hot paths cache them (`static auto& c = Registry::instance().counter(...)`)
/// so the name lookup happens once.

/// Number of independent increment slots per metric.
inline constexpr std::size_t kShards = 16;

/// Stable shard slot of the calling thread (threads beyond kShards share).
std::size_t thread_shard();

namespace detail {
struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};
struct alignas(64) PaddedF64 {
  std::atomic<double> v{0.0};
};
}  // namespace detail

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    if (!enabled()) return;
    shards_[thread_shard()].v.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Folded total (shards summed in slot order).
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  detail::PaddedU64 shards_[kShards];
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: upper bounds are set at registration and never
/// change. Out-of-range observations land in the implicit +Inf bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Folded per-bucket counts; last entry is the +Inf bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const;
  double sum() const;
  void reset();

 private:
  std::vector<double> bounds_;  ///< Ascending; +Inf bucket is implicit.
  /// Shard-major layout: shard s owns cells [s*(bounds+1), (s+1)*(bounds+1)).
  std::vector<detail::PaddedU64> cells_;
  detail::PaddedF64 sum_[kShards];
  detail::PaddedU64 count_[kShards];
};

/// One exported metric, ready for the text/JSON writers.
struct MetricSnapshot {
  enum class Type { kCounter, kGauge, kHistogram };
  std::string name;
  std::string help;
  Type type = Type::kCounter;
  // Counter / gauge payload.
  double value = 0.0;
  // Histogram payload.
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> bucket_counts;  ///< Includes the +Inf bucket.
  std::uint64_t count = 0;
  double sum = 0.0;
};

class Registry {
 public:
  /// The process-wide registry.
  static Registry& instance();

  /// Find-or-create. Names are dotted paths ("pipeline.alarms"); the
  /// Prometheus exporter mangles them to mhm_pipeline_alarms. Registering
  /// the same name with a different metric type throws LogicError-free:
  /// it is reported via std::logic_error (obs has no dependency on
  /// mhm_common).
  Counter& counter(std::string_view name, std::string_view help = "");
  Gauge& gauge(std::string_view name, std::string_view help = "");
  /// `upper_bounds` must be ascending and non-empty; only the first
  /// registration's bounds are kept.
  Histogram& histogram(std::string_view name, std::vector<double> upper_bounds,
                       std::string_view help = "");

  /// Deterministic export: metrics in lexicographic name order, shards
  /// folded in slot order.
  std::vector<MetricSnapshot> snapshot() const;

 private:
  struct Entry {
    MetricSnapshot::Type type;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> metrics_;
};

}  // namespace mhm::obs
