#pragma once

// Shared plumbing of the perfbench program: clocks, order statistics, process
// memory, the loopback scrape client, the per-run scratch directory and the
// result record every workload fills in.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated quantile q in [0, 1] of `v` (copied; 0 when empty).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// VmHWM / VmRSS of this process in bytes (0 when unreadable).
std::size_t peak_rss_bytes();
std::size_t rss_bytes();
/// Hand freed heap pages back to the kernel so an RSS delta measures only
/// what is constructed after it.
void trim_heap();

/// Share of CPU time the hypervisor stole from this VM since `since`
/// (/proc/stat steal ÷ all), a host-noise gauge for the report.
struct CpuTimes {
  unsigned long long steal = 0, total = 0;
};
CpuTimes cpu_times();
double steal_share(const CpuTimes& since);

/// A JSON value parser used only to check that a body is well formed.
bool json_parses(const std::string& text);
/// Prometheus text exposition check: every sample line is
/// `name[{labels}] value`, with a finite or +Inf/NaN number.
bool prometheus_parses(const std::string& text);

struct HttpResponse {
  int status = 0;  ///< 0 when the request failed at the socket level.
  std::string body;
};
/// One blocking `GET path` to 127.0.0.1:port (Connection: close).
HttpResponse http_get(std::uint16_t port, const std::string& path);

/// Open-loop scrape client: one GET every `period`, cycling over `routes`,
/// each timed from the moment it was due. A scrape fails when it answers
/// non-200, returns a body that does not parse, or starts a full period
/// after its due time.
class Scraper {
 public:
  Scraper(std::uint16_t port, std::vector<std::string> routes,
          std::chrono::milliseconds period);
  ~Scraper();
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void start();
  void stop();  ///< Joins the client thread.

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Latencies (ms from due time) of successful scrapes, per route.
  const std::vector<std::vector<double>>& latencies_ms() const {
    return latencies_;
  }
  /// Mean over routes of each route's median latency (ms). Routes differ
  /// in cost, so a median over the pooled samples would sit in the gap
  /// between them and jump with a one-sample imbalance.
  double p50_ms() const;
  /// Largest lateness of a scrape start past its due time (ms).
  double max_start_lag_ms() const { return max_lag_ms_; }

 private:
  void loop();

  std::uint16_t port_;
  std::vector<std::string> routes_;
  std::chrono::milliseconds period_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  double max_lag_ms_ = 0.0;
  std::vector<std::vector<double>> latencies_;
};

/// Per-run scratch directory under the working directory, removed with
/// everything in it when the object dies.
class RunDir {
 public:
  RunDir();
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  std::string sub(const std::string& name) const;

 private:
  std::string path_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): output checks, operation
/// accounting, the end-to-end metrics, and (traced runs) the per-layer ones
/// plus a human-readable layer table.
struct Outcome {
  std::vector<std::string> errors;  ///< Failed output checks.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::string report;  ///< Printed before the result line.

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Clock::time_point process_start;
  std::size_t threads = 1;
};

/// Additive per-interval layer table: rows of (layer, metric, µs/interval);
/// the total is compared against the untraced end-to-end µs/interval.
struct LayerRow {
  std::string layer;
  std::string what;
  double us = 0.0;
};
std::string layer_table(const std::vector<LayerRow>& rows,
                        double end_to_end_us, double traced_us);

std::string fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
