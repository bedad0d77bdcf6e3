#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/interval_ring.hpp"
#include "obs/journal.hpp"

namespace mhm::obs {

/// The process's black box: one `.mhmi` bundle format for every incident.
///
/// An alarm burst or health transition becomes a bundle of the pre/post
/// verdict window, the raw heat-map rows behind it, the top-|z| cell deltas
/// and the model version — enough to re-score the window through
/// `ModelRegistry` bit-identically (`mhm_tool incidents replay`). An armed
/// store also writes context bundles of the recent window (`reason crash`
/// from the SIGSEGV/SIGABRT handler, `flush` for HTTP /flush, `shutdown` on
/// exit) that carry the process state after the `== profile ==` section.
///
///  - IncidentRecorder: per-stream trigger logic + a bounded row ring. One
///    per Session, fed from StreamObserver::record; its verdicts are the
///    session IntervalRing's.
///  - IncidentStore: process-level sink shared by every recorder. Prerenders
///    each bundle, then writes it front to back, `== end ==` last: a crash
///    mid-write leaves a file that parses as truncated, never a corrupt one.

struct IncidentOptions {
  std::size_t pre = 16;           ///< Intervals retained before the trigger.
  std::size_t post = 16;          ///< Intervals captured after the trigger.
  std::size_t burst_count = 3;    ///< Alarms within burst_window that trigger.
  std::size_t burst_window = 8;   ///< Sliding window, intervals.
  /// Minimum intervals between two incidents on one stream: a sustained
  /// attack produces one bundle per gap, not one per alarm.
  std::uint64_t min_gap = 256;
  std::size_t top_cells = 8;      ///< |z|-ranked cell deltas in the bundle.
};

/// One interval inside an incident window.
struct IncidentEntry {
  std::uint64_t interval = 0;
  double score = 0.0;   ///< log10 Pr(M').
  double spe = 0.0;
  bool alarm = false;
  std::size_t nearest_pattern = 0;
  std::uint64_t model_version = 0;
  std::vector<double> row;  ///< Raw heat-map cells (the replay payload).
};

/// A fully assembled incident, handed from recorder to store.
struct Incident {
  std::uint64_t id = 0;            ///< Assigned by the store on commit.
  /// "alarm_burst" | "health_transition" | "retrain_publish", or for the
  /// context bundles of an armed store "crash" | "flush" | "shutdown".
  std::string reason;
  std::string detail;              ///< e.g. "OK->DRIFTING".
  std::uint64_t trigger_interval = 0;
  std::uint64_t model_version = 0;
  double threshold = 0.0;          ///< θ_p the window was judged against.
  std::size_t cells = 0;           ///< Heat-map dimension L.
  std::size_t pre = 0;
  std::size_t post = 0;
  std::vector<IncidentEntry> window;      ///< Oldest first.
  std::vector<CellContribution> top_cells;  ///< At the trigger interval.
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

class IncidentRecorder;

class IncidentStore {
 public:
  struct Options {
    std::string dir = ".";
    std::size_t max_incidents = 32;      ///< Summaries retained (ring).
    std::size_t buffer_bytes = 1 << 20;  ///< Prerender buffer capacity.
  };

  explicit IncidentStore(const Options& options);
  ~IncidentStore();  ///< Disarms.

  /// Render + write the bundle, assign its id, retain a summary. Returns
  /// the bundle path ("" when the write failed; no summary is kept then).
  /// Thread-safe.
  std::string commit(Incident incident);

  std::vector<IncidentSummary> summaries() const;
  std::uint64_t total_committed() const;

  /// JSON array of summaries (the /incidents body).
  std::string json_list() const;
  /// JSON object for one incident, with the verdict sequence in hexfloat.
  /// Nullopt when the id is unknown.
  std::optional<std::string> json_one(std::uint64_t id) const;

  /// Make this store the process black box: pre-open
  /// `<dir>/incident-crash-<pid>.mhmi` and install SIGSEGV/SIGABRT handlers
  /// that write the prerendered crash bundle to it, then re-raise. While
  /// armed, IncidentRecorder::note re-renders that bundle at most every
  /// 250 ms from its pre-window. `context` (may be empty) renders extra
  /// `== name ==` sections (journal tail, model health, fleet) for crash,
  /// flush and shutdown bundles; it runs on the scoring thread and on
  /// flush()'s caller, holding neither the store's nor a recorder's lock
  /// (it may read a recorder, as the model-health heat row does), so it
  /// must be thread-safe. False when a store is already armed, the crash
  /// file cannot be created, or obs is compiled out.
  bool arm(std::function<std::string()> context = {});

  /// Restore the previous signal handlers, close the crash file and remove
  /// it if no signal fired. Safe to call when not armed.
  void disarm();

  /// One relaxed load: the per-interval cost of an unarmed store.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Commit a context bundle (`reason` "flush" or "shutdown") of the newest
  /// recorder's current pre-window. Returns its path, or "" when unarmed
  /// or the write failed.
  std::string flush(const std::string& reason);

  /// flush() on the armed store, if any (the /flush route).
  static std::string flush_armed(const std::string& reason);

  /// Test hook: commit only the first half of the rendered bundle (a crash
  /// mid-write), which must parse as truncated. Returns the path.
  std::string debug_commit_partial(Incident incident);

 private:
  friend class IncidentRecorder;

  /// Render `incident` into buffer_; with `context` (render_context()'s
  /// output), the context sections too.
  void render_locked(const Incident& incident, const std::string* context);
  std::string commit_locked(Incident& incident, bool partial,
                            const std::string* context);
  /// The context provider's sections. Called without mu_ held: the
  /// provider may lock a recorder that is committing into this store.
  std::string render_context();
  /// The newest recorder is the one context bundles read the window from.
  void attach_source(const IncidentRecorder* recorder);
  void detach_source(const IncidentRecorder* recorder);
  /// The newest recorder's pre-window (empty without one).
  Incident source_context();
  /// True at most once per refresh period while armed (claims the slot).
  bool refresh_due();
  /// Re-render the crash bundle from `context` and publish it to the
  /// signal handler.
  void refresh_crash(Incident context);

  Options options_;
  mutable std::mutex mu_;
  std::string buffer_;  ///< Preallocated render buffer.
  std::uint64_t next_id_ = 1;
  std::uint64_t total_ = 0;
  std::vector<IncidentSummary> ring_;  ///< Bounded, oldest dropped.

  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> last_refresh_ns_{0};
  std::function<std::string()> context_;  ///< Guarded by mu_.
  std::string crash_path_;                ///< Guarded by mu_.
  std::mutex source_mu_;
  const IncidentRecorder* source_ = nullptr;  ///< Guarded by source_mu_.
};

class IncidentRecorder {
 public:
  /// Views `ring`, which it grows to cover its pre + post + 1 window and the
  /// burst window. `store` may be null: the recorder then runs trigger logic
  /// but commits nothing (used by tests probing the window machinery in
  /// isolation).
  IncidentRecorder(const IncidentOptions& options,
                   std::shared_ptr<IncidentStore> store,
                   std::shared_ptr<IntervalRing> ring);
  ~IncidentRecorder();

  /// Per-interval hook (from StreamObserver::record), once the ring's newest
  /// entry is written: `raw` is that interval's heat-map row,
  /// `baseline_mean` / `baseline_stddev` the per-cell training baseline
  /// (empty spans when the model carries none). Copies the row into a ring
  /// of pre + post + 1 slots, allocated at the first note; the trigger and
  /// post-window intervals allocate nothing until the commit. While the
  /// store is armed, also refreshes its crash bundle (rate-limited).
  /// Thread-safe.
  void note(std::span<const double> raw, std::span<const double> baseline_mean,
            std::span<const double> baseline_stddev);

  /// Incidents this recorder has committed / suppressed (rate limit).
  std::uint64_t committed() const;
  std::uint64_t suppressed() const;
  /// An incident is being assembled (post window still filling).
  bool pending() const;

  /// The retained pre-window as a context incident (no reason, no top
  /// cells): the newest interval is the trigger, `post` is 0.
  Incident context() const;

  /// The newest noted interval with its row (a default entry before the
  /// first note).
  IncidentEntry newest() const;

 private:
  /// The window from `pre` entries before `trigger` to the newest noted
  /// one: verdicts from the ring, rows from the row ring. Takes the ring's
  /// mutex under mu_.
  Incident window_locked(std::uint64_t trigger, std::size_t pre) const;
  /// Noted entries before `seq` that its pre-window holds.
  std::size_t pre_before(std::uint64_t seq) const {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(options_.pre, seq - first_seq_));
  }
  Incident context_locked() const;
  /// Assemble the pending incident from the ring and hand it to the store.
  void commit_locked();

  IncidentOptions options_;
  std::shared_ptr<IncidentStore> store_;
  std::shared_ptr<const IntervalRing> ring_;
  mutable std::mutex mu_;  ///< Taken before the ring's mutex, never after.
  std::size_t slots_;      ///< pre + post + 1.
  std::size_t cells_ = 0;  ///< Newest row length.
  std::vector<double> rows_;  ///< slots_ × cells_ row ring, by seq % slots_.
  bool noted_ = false;
  std::uint64_t first_seq_ = 0;   ///< Ring sequence of the first note.
  std::uint64_t newest_seq_ = 0;  ///< Ring sequence of the newest note.
  std::uint64_t burst_from_ = 0;  ///< Oldest sequence the burst counts.
  std::uint8_t prev_status_ = 0;
  std::uint64_t last_trigger_ = 0;
  bool has_triggered_ = false;
  // The pending incident, held as scalars and preallocated buffers so the
  // trigger and post-window intervals allocate nothing.
  bool pending_ = false;
  const char* reason_ = "";
  char detail_[64] = {};
  std::uint64_t trigger_seq_ = 0;
  std::vector<CellContribution> top_cells_;
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
/// whatever entries were complete. Unknown `== name ==` sections (the
/// context sections included) are skipped.
bool parse_incident_file(const std::string& path, IncidentBundle* out,
                         std::string* error);

}  // namespace mhm::obs
