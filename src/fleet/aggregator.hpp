#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "fleet/spec.hpp"

namespace mhm::fleet {

/// One ranked entry of the fleet's top-K most anomalous streams.
struct TopStream {
  std::uint64_t device = 0;
  std::string archetype;
  /// Netdata-style severity: EWMA of the recent score deficit
  /// max(0, θ − log10 Pr(M)) — 0 while the stream scores above the primary
  /// threshold, grows with how far and how persistently it scores below.
  double severity = 0.0;
  std::uint64_t alarms = 0;
  int status = 0;  ///< ModelHealthStatus at the last fold (0/1/2).
};

/// One rate-limited incident mark: device d started an alarm wave at
/// `interval` (at most one mark per device per FleetSpec::incident_gap).
struct IncidentMark {
  std::uint64_t interval = 0;
  std::uint64_t device = 0;
  std::uint8_t archetype = 0;
};

/// Co-temporal group of incident marks: marks within
/// FleetSpec::incident_window intervals of each other chain into one group —
/// the fleet's "this wave hit N devices at once" forensics unit.
struct IncidentGroup {
  std::uint64_t first_interval = 0;
  std::uint64_t last_interval = 0;
  std::size_t devices = 0;   ///< Distinct devices in the group.
  std::uint64_t marks = 0;   ///< Total marks chained in.
  std::vector<std::string> archetypes;  ///< Distinct names, sorted.
};

/// Per-shard rollup line of a snapshot.
struct ShardSummary {
  std::size_t devices = 0;
  std::uint64_t intervals = 0;
  std::uint64_t alarms = 0;
  /// Wall-clock scoring rate — timing, explicitly outside the determinism
  /// contract (everything else in a snapshot is bit-reproducible).
  double intervals_per_sec = 0.0;
  /// Profiler work per scored interval (perf cycles when the counter source
  /// is perf_event, thread-CPU nanoseconds otherwise — see
  /// FleetSnapshot::prof_source). Timing-class: outside the determinism
  /// contract, like intervals_per_sec.
  double cycles_per_interval = 0.0;
};

/// Point-in-time fleet-wide state: everything /fleet serves. O(shards × K)
/// to assemble — never O(devices), and never a poll of any session.
struct FleetSnapshot {
  std::size_t devices = 0;
  std::size_t shards = 0;
  std::uint64_t intervals = 0;
  std::uint64_t alarms = 0;
  /// Version of the shared model every device session scores against —
  /// a fleet-wide hot-swap (continuous retraining) is visible here.
  std::uint64_t model_version = 0;
  std::uint64_t devices_ok = 0;
  std::uint64_t devices_drifting = 0;
  std::uint64_t devices_miscalibrated = 0;
  double intervals_per_sec = 0.0;
  /// Unit of ShardSummary::cycles_per_interval: "perf_event" (CPU cycles),
  /// "thread_cputime" (nanoseconds), or "disabled".
  std::string prof_source;
  std::vector<ShardSummary> shard_summaries;
  /// Severity-descending (ties: device id ascending), at most spec.top_k.
  std::vector<TopStream> top;
  /// Co-temporal incident groups, oldest first (assembled from the folded
  /// per-shard marks; deterministic at any MHM_THREADS).
  std::vector<IncidentGroup> incident_groups;
};

/// JSON object for a snapshot — the /fleet response body, one line.
std::string fleet_json(const FleetSnapshot& snapshot);

/// Folds per-session verdict/health streams into fleet-wide state the obs
/// server can scrape in O(shards), not O(sessions).
///
/// Cost model (the lock-cheap contract):
///  * per interval: one relaxed atomic add for the shard's interval/alarm
///    counters plus one owner-thread EWMA update — no locks, no strings;
///  * per fold (every FleetSpec::health_refresh rounds): one O(devices in
///    shard) pass under that shard's mutex recomputing the status rollup
///    and the shard-local top-K;
///  * per scrape: O(shards) atomic reads plus an O(shards × K) merge of the
///    folded top lists under the shard mutexes.
///
/// Threading: record_chunk()/fold_shard() for shard s are owner-only — the
/// runner calls them from whichever worker currently owns shard s (shards
/// never split across workers within a round). snapshot() may run
/// concurrently from any thread (the obs serve thread): it only reads the
/// atomics and the mutex-guarded folded state, never the owner-side arrays.
///
/// Registry export is fleet/shard-level only — `fleet.*` and
/// `fleet.shard.<s>.*` series, O(shards) slots no matter how many devices —
/// refreshed at fold time.
class FleetAggregator {
 public:
  /// `archetype_of[d]` — archetype index of device d;
  /// `shard_of_begin` — device range [shard_of_begin[s], shard_of_begin[s+1])
  /// owned by shard s (size shards + 1).
  FleetAggregator(const FleetSpec& spec,
                  std::vector<std::string> archetype_names,
                  std::vector<std::uint8_t> archetype_of,
                  std::vector<std::size_t> shard_of_begin);
  ~FleetAggregator();

  FleetAggregator(const FleetAggregator&) = delete;
  FleetAggregator& operator=(const FleetAggregator&) = delete;

  std::size_t device_count() const { return archetype_of_.size(); }
  std::size_t shard_count() const { return shard_of_begin_.size() - 1; }

  /// Fold one scored chunk of shard `shard`: verdicts for the contiguous
  /// devices [first_device, first_device + verdicts.size()). `threshold` is
  /// the primary θ (log10) the severity deficit is measured against.
  /// Owner-only; O(1) per verdict.
  void record_chunk(std::size_t shard, std::size_t first_device,
                    std::span<const Verdict> verdicts, double threshold);

  /// Add `work` profiler-counter units (cycles or thread-CPU ns, per the
  /// process counter source) spent scoring shard `shard` — the runner's
  /// per-round delta of obs::prof::thread_work_counter(). Owner-only, like
  /// record_chunk; folded into ShardSummary::cycles_per_interval at the
  /// next fold_shard.
  void record_work(std::size_t shard, std::uint64_t work);

  /// Recompute shard `shard`'s status rollup and local top-K from the
  /// per-device state. `statuses[i]` is the ModelHealthStatus (0/1/2) of
  /// device shard_begin + i; `elapsed_seconds` feeds the shard's
  /// intervals/sec gauge (pass 0 to keep the previous rate). Owner-only.
  void fold_shard(std::size_t shard, std::span<const std::uint8_t> statuses,
                  double elapsed_seconds);

  /// Stamp the model version snapshots report (any thread; the runner sets
  /// it at engine creation and again after any hot-swap).
  void set_model_version(std::uint64_t version) {
    model_version_.store(version, std::memory_order_relaxed);
  }

  /// Assemble the fleet-wide view (any thread).
  FleetSnapshot snapshot() const;

  /// snapshot() rendered as JSON — bind to MonitorServer::set_fleet and to
  /// an armed IncidentStore's `== fleet ==` context section.
  std::string json() const { return fleet_json(snapshot()); }

 private:
  struct Shard;

  FleetSpec spec_;
  std::vector<std::string> archetype_names_;
  std::vector<std::uint8_t> archetype_of_;
  std::vector<std::size_t> shard_of_begin_;

  // Owner-side per-device state (indexed by device id). Written only by the
  // owning shard's worker; read only inside fold_shard for that shard.
  std::vector<double> severity_;
  std::vector<std::uint64_t> device_alarms_;
  /// Interval of the device's last incident mark (kNeverMarked until the
  /// first); gates marks to one per incident_gap. Owner-side.
  std::vector<std::uint64_t> last_mark_;

  std::atomic<std::uint64_t> model_version_{0};

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mhm::fleet
