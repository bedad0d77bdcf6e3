#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/journal.hpp"
#include "obs/obs.hpp"

namespace mhm::obs {

class IncidentStore;
class ModelHealthMonitor;
class ScoreHistory;

/// Dependency-free HTTP/1.1 monitoring endpoint (POSIX sockets, loopback
/// only, single accept-and-serve thread, bounded request size, one request
/// per connection). Off by default; long-running pipelines start it when
/// MHM_OBS_PORT is set, `mhm_tool serve` starts it explicitly.
///
/// Routes (all GET):
///   /metrics          Prometheus 0.0.4 text of the process registry, plus
///                     the attached monitor's model_health.* gauges
///   /healthz          JSON liveness: uptime + last-analysis age
///   /status           JSON snapshot: intervals/alarms/scenario progress/LL
///   /journal?tail=N   last N decision records as JSON lines (default 100)
///   /trace            span ring as Chrome trace_event JSON (Perfetto)
///   /model            model-health JSON: status, drift statistics, sketch
///                     quantiles vs training, component occupancy
///   /fleet            fleet-aggregate JSON: device rollup, per-shard rates,
///                     top-K most anomalous streams (set_fleet provider)
///   /history?series=&res=&from=
///                     multi-resolution score history JSON (set_history):
///                     series in {score,spe,alarm,status,all}, res the
///                     resolution tier (0 = raw), from a minimum interval
///   /incidents        incident-bundle summaries JSON (set_incidents)
///   /incidents/<id>   one incident with its hexfloat verdict sequence
///   /profile?format=  continuous-profiler state: format=json (default) is
///                     per-stage wall/IPC/miss attribution, format=collapsed
///                     is flamegraph.pl / speedscope collapsed stacks
///   /version          build info JSON: git describe, compiler, SIMD tier,
///                     profiler counter source
///   /flush            commit a `reason flush` bundle through the armed
///                     IncidentStore, returns its path (503 when unarmed)
///
/// Malformed or out-of-range query parameters (?tail=, ?res=, ?from=,
/// ?format=, a non-numeric incident id) answer 400 with a JSON error
/// object — never a silent clamp, never a 500.
///
/// Handling runs entirely on the server thread and only reads state behind
/// the obs layer's own locks/atomics, so an attached scraper never touches
/// the pipeline's hot path — the "serving enabled but no client" overhead
/// contract (<1%) is measured by bench/perf_pipeline.cpp.
class MonitorServer {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< 0 = kernel-assigned ephemeral port.
    std::size_t max_request_bytes = 8192;  ///< Larger requests get 431.
  };

  MonitorServer();
  ~MonitorServer();

  MonitorServer(const MonitorServer&) = delete;
  MonitorServer& operator=(const MonitorServer&) = delete;

  /// Bind 127.0.0.1:port and start the serve thread. Returns false when
  /// already running, the bind fails, or the build compiled obs out.
  bool start(const Options& options);
  void stop();
  bool running() const;
  /// Bound port (0 when not running). With Options::port == 0 this is the
  /// kernel-assigned one — tests and `mhm_tool serve` print it.
  std::uint16_t port() const;

  /// Journal served by /journal; may be set or swapped while running.
  /// Null detaches (the endpoint then answers 404).
  void set_journal(std::shared_ptr<const DecisionJournal> journal);

  /// Model-health monitor served by /model, and the source of the
  /// `model_health.*` gauges /metrics renders at scrape time (none while
  /// detached); same attach/detach semantics as set_journal.
  void set_model_health(std::shared_ptr<const ModelHealthMonitor> monitor);

  /// Score history served by /history; same attach/detach semantics as
  /// set_journal.
  void set_history(std::shared_ptr<const ScoreHistory> history);

  /// Incident store served by /incidents[/id]; same attach/detach
  /// semantics as set_journal.
  void set_incidents(std::shared_ptr<const IncidentStore> incidents);

  /// JSON provider served verbatim by /fleet (the FleetAggregator's
  /// snapshot renderer); same attach/detach semantics as set_journal. The
  /// provider runs on the serve thread and must be safe to call
  /// concurrently with the fleet's workers — the aggregator's snapshot path
  /// only touches folded state behind its own per-shard locks.
  void set_fleet(std::function<std::string()> provider);

  /// JSON-object provider merged into the /model body under a `"retrain"`
  /// key (the RetrainManager's json()); same attach/detach semantics as
  /// set_journal. The provider runs on the serve thread and must be
  /// thread-safe. With no model-health monitor attached, /model still
  /// answers 404 — retrain state without a health stream is meaningless.
  void set_retrain(std::function<std::string()> provider);

  /// The process-wide server used by the MHM_OBS_PORT autostart.
  static MonitorServer& instance();

  /// Start instance() on MHM_OBS_PORT when the variable names a valid port
  /// and the server is not yet running. Returns true when the server is
  /// (now) running. MHM_OBS_PORT=0 binds a kernel-assigned ephemeral port
  /// (reported on stderr and via port()) so concurrent test processes never
  /// collide. The pipeline calls this from its long-running entry points,
  /// making any run's process-wide routes (/metrics, /status, /trace,
  /// /profile) scrapeable without code changes.
  static bool ensure_env_server();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mhm::obs
