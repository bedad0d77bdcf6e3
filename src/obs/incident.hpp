#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mhm::obs {

/// Incident black box.
///
/// An alarm today leaves behind a point-in-time flight dump and a bounded
/// journal tail; neither is a self-contained record an operator can take
/// offline and re-examine. The incident engine turns every alarm burst or
/// health transition into a `.mhmi` bundle: the pre/post verdict window,
/// the raw heat-map rows that produced it, the top-|z| cell deltas against
/// the training baseline, and the model version — enough to re-score the
/// whole window through `ModelRegistry` and reproduce the verdicts
/// bit-identically (`mhm_tool incidents replay`).
///
/// Two layers, mirroring journal/flight:
///  - IncidentRecorder: per-stream trigger logic + bounded pre-ring. One per
///    Session, fed from StreamObserver::record.
///  - IncidentStore: process-level sink shared by every recorder. Renders
///    bundles into a preallocated buffer (the flight recorder's discipline:
///    prerender, then one write(2) sweep, `== end ==` last — a crash mid-
///    write leaves a truncated file that parses as truncated, never a
///    corrupt one), rate-limits, and keeps bounded summaries for /incidents
///    and the `== incidents ==` dump section.

struct IncidentOptions {
  std::size_t pre = 16;           ///< Intervals retained before the trigger.
  std::size_t post = 16;          ///< Intervals captured after the trigger.
  std::size_t burst_count = 3;    ///< Alarms within burst_window that trigger.
  std::size_t burst_window = 8;   ///< Sliding window, intervals.
  /// Minimum intervals between two incidents on one stream: a sustained
  /// attack produces one bundle per gap, not one per alarm.
  std::uint64_t min_gap = 256;
  std::size_t top_cells = 8;      ///< |z|-ranked cell deltas in the bundle.
  /// Copy the raw heat-map rows into the bundle (the replay payload). Costs
  /// (pre+post+1) × L doubles per recorder — the single-stream default;
  /// fleet sessions keep recorders off entirely.
  bool capture_rows = true;
};

/// One interval inside an incident window.
struct IncidentEntry {
  std::uint64_t interval = 0;
  double score = 0.0;   ///< log10 Pr(M').
  double spe = 0.0;
  bool alarm = false;
  std::size_t nearest_pattern = 0;
  std::uint64_t model_version = 0;
  std::vector<double> row;  ///< Raw heat-map cells; empty unless captured.
};

/// One cell's deviation from the training baseline at the trigger interval.
struct IncidentCellDelta {
  std::size_t cell = 0;
  double observed = 0.0;
  double expected = 0.0;
  double z = 0.0;
};

/// A fully assembled incident, handed from recorder to store.
struct Incident {
  std::uint64_t id = 0;            ///< Assigned by the store on commit.
  std::string reason;              ///< "alarm_burst" | "health_transition".
  std::string detail;              ///< e.g. "OK->DRIFTING".
  std::uint64_t trigger_interval = 0;
  std::uint64_t model_version = 0;
  double threshold = 0.0;          ///< θ_p the window was judged against.
  std::size_t cells = 0;           ///< Heat-map dimension L.
  std::size_t pre = 0;
  std::size_t post = 0;
  std::vector<IncidentEntry> window;      ///< Oldest first.
  std::vector<IncidentCellDelta> top_cells;
  std::string path;                ///< Bundle file; set by the store.
};

/// Bounded scrape-visible record of a committed incident.
struct IncidentSummary {
  std::uint64_t id = 0;
  std::string reason;
  std::string detail;
  std::uint64_t trigger_interval = 0;
  std::uint64_t model_version = 0;
  std::size_t entries = 0;
  std::size_t alarms = 0;
  std::size_t bytes = 0;
  std::string path;
  /// Verdict sequence (no rows): enough for /incidents/<id> to show the
  /// score trajectory without re-reading the bundle file.
  std::vector<IncidentEntry> verdicts;
};

class IncidentStore {
 public:
  struct Options {
    std::string dir = ".";
    std::size_t max_incidents = 32;      ///< Summaries retained (ring).
    std::size_t buffer_bytes = 1 << 20;  ///< Prerender buffer capacity.
  };

  explicit IncidentStore(const Options& options);

  /// Render + write the bundle, assign its id, retain a summary. Returns
  /// the bundle path ("" when the write failed). Thread-safe.
  std::string commit(Incident incident);

  /// Called by recorders when a trigger was rate-limited away.
  void note_suppressed();

  std::vector<IncidentSummary> summaries() const;
  std::uint64_t total_committed() const;

  /// JSON array of summaries (the /incidents body).
  std::string json_list() const;
  /// JSON object for one incident, with the verdict sequence in hexfloat.
  /// Nullopt when the id is unknown.
  std::optional<std::string> json_one(std::uint64_t id) const;

  /// Text block for the flight dump's `== incidents ==` section.
  std::string dump_section() const;

  const Options& options() const { return options_; }

  /// Test hook: render `incident` and write only the first half of the
  /// bundle, simulating a crash mid-write. The file must still parse (as
  /// truncated). Returns the partial path.
  std::string debug_commit_partial(Incident incident);

 private:
  std::string commit_locked(Incident& incident, bool partial);

  Options options_;
  mutable std::mutex mu_;
  std::string buffer_;  ///< Preallocated render buffer.
  std::uint64_t next_id_ = 1;
  std::uint64_t total_ = 0;
  std::vector<IncidentSummary> ring_;  ///< Bounded, oldest dropped.
};

class IncidentRecorder {
 public:
  /// `store` may be null: the recorder then runs trigger logic but commits
  /// nothing (used by tests probing the window machinery in isolation).
  IncidentRecorder(const IncidentOptions& options,
                   std::shared_ptr<IncidentStore> store);

  /// Per-interval hook (from StreamObserver::record): `status` is the
  /// model-health status code after this interval (0 OK, 1 DRIFTING,
  /// 2 MISCALIBRATED), `threshold` the primary θ_p, `baseline_mean` /
  /// `baseline_stddev` the per-cell training baseline (empty spans when the
  /// model carries none). Thread-safe.
  void note(std::uint64_t interval, double score, double spe, bool alarm,
            std::size_t nearest_pattern, std::uint64_t model_version,
            double threshold, std::uint8_t status,
            std::span<const double> raw, std::span<const double> baseline_mean,
            std::span<const double> baseline_stddev);

  /// Incidents this recorder has committed / suppressed (rate limit).
  std::uint64_t committed() const;
  std::uint64_t suppressed() const;
  /// An incident is being assembled (post window still filling).
  bool pending() const;

  const IncidentOptions& options() const { return options_; }

 private:
  void trigger_locked(const char* reason, std::string detail,
                      std::uint64_t interval, double threshold,
                      std::span<const double> raw,
                      std::span<const double> baseline_mean,
                      std::span<const double> baseline_stddev);

  IncidentOptions options_;
  std::shared_ptr<IncidentStore> store_;
  mutable std::mutex mu_;
  std::vector<IncidentEntry> ring_;  ///< Pre-window (capacity pre+1).
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  std::vector<std::uint64_t> recent_alarms_;  ///< Intervals, for the burst.
  std::uint8_t prev_status_ = 0;
  bool has_prev_status_ = false;
  std::uint64_t last_trigger_ = 0;
  bool has_triggered_ = false;
  std::optional<Incident> pending_;
  std::size_t post_remaining_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t suppressed_ = 0;
};

/// A parsed `.mhmi` bundle (mhm_tool incidents show/replay).
struct IncidentBundle {
  Incident incident;
  bool truncated = false;       ///< `== end ==` marker missing.
  std::vector<std::string> build_info;  ///< Header `build.*` lines, verbatim.
};

/// Parse a bundle file. Returns false only on I/O failure or a malformed
/// header; a file cut off mid-write parses with `truncated` set and
/// whatever entries were complete.
bool parse_incident_file(const std::string& path, IncidentBundle* out,
                         std::string* error);

}  // namespace mhm::obs
