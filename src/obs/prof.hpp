#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace mhm::obs::prof {

/// Continuous profiling: stage-attributed wall time and hardware counters.
///
/// `PROF_ZONE(kScoreProject)` opens a stage zone for the enclosing scope.
/// Zone entry/exit reads the TSC (steady_clock off x86) and folds the delta
/// into per-stage sharded accumulators — `kShards` cache-line-padded atomic
/// slots indexed by `obs::thread_shard()`, folded in slot order 0..15 at
/// export, the metrics registry's determinism discipline. Nothing a zone
/// records ever feeds back into scoring, so the bit-identity contract is
/// untouched.
///
/// Hardware counters (cycles / instructions / cache misses / branch misses)
/// come from a lazily-opened per-thread `perf_event_open` group, read on a
/// decimated subset of zone entries (the first few, then every 64th) so the
/// syscall cost never rides the hot path; `counter_samples` counts the
/// sampled entries so per-entry rates scale correctly. Where perf events are
/// unavailable (unprivileged containers, CI) the layer falls back to
/// `CLOCK_THREAD_CPUTIME_ID` deltas — `counter_source()` names which source
/// is live, and the same string is stamped into the build-info block.
/// `MHM_PROF_NO_PERF=1` forces the fallback (CI exercises it).
///
/// A low-rate sampling profiler (`start_sampler`, default ~97 Hz — prime,
/// so it never locks onto a periodic workload) walks per-thread shadow
/// stacks pushed by both OBS_SPAN spans and PROF_ZONE zones and aggregates
/// collapsed stacks ("a;b;c <count>") for flamegraph.pl / speedscope.
///
/// Everything compiles out under MHM_OBS_DISABLE and obeys the runtime
/// kill switches: `MHM_OBS=0` disables zones with the rest of the layer,
/// `MHM_PROF=0` / `set_prof_enabled(false)` disables profiling alone
/// (the bench overhead leg toggles this).

/// Instrumented pipeline stages. Scoring stages are `score.*`, the shard
/// batch plumbing `shard.*`, training `train.*`; `analyze` is the umbrella
/// around one analyzed interval (serial session or whole shard batch) that
/// the attribution fraction is measured against.
enum class Stage : std::uint8_t {
  kAnalyze = 0,       ///< One Session::analyze / analyze_shard call.
  kScoreProject,      ///< PCA projection (serial matvec or batch tiles).
  kScoreGmm,          ///< GMM responsibilities / Mahalanobis / log-sum-exp.
  kScoreSpe,          ///< Batch SPE column pass.
  kScoreObserve,      ///< StreamObserver::record (journal/health/history).
  kShardGather,       ///< analyze_shard gather of session rows into SoA.
  kShardScatter,      ///< analyze_shard verdict scatter through observers.
  kTrainCovariance,   ///< Covariance / Gram moment matrix assembly.
  kTrainEigensolve,   ///< Symmetric eigensolve of the moment matrix.
  kTrainEm,           ///< Full GMM EM fit.
};
inline constexpr std::size_t kStageCount = 10;

/// Stable export name of a stage ("analyze", "score.project", ...).
const char* stage_name(Stage stage);

/// One stage's folded accumulator state.
struct StageSnapshot {
  const char* name = "";
  std::uint64_t entries = 0;        ///< Outermost zone entries recorded.
  std::uint64_t wall_ns = 0;        ///< Summed wall time (ticks converted).
  std::uint64_t cycles = 0;         ///< Summed over sampled entries.
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t counter_samples = 0;  ///< Entries the counters were read on.
  std::uint64_t cpu_ns = 0;         ///< Fallback-source thread CPU time.
};

#if defined(MHM_OBS_DISABLED)

class ZoneScope {
 public:
  explicit ZoneScope(Stage) {}
};

inline bool prof_enabled() { return false; }
inline void set_prof_enabled(bool) {}
inline const char* counter_source() { return "disabled"; }
inline std::vector<StageSnapshot> snapshot_stages() { return {}; }
inline std::string profile_json() { return "{}"; }
inline std::string collapsed_stacks() { return ""; }
inline std::string dump_section() { return ""; }
inline void refresh_registry_metrics() {}
inline void reset() {}
inline void start_sampler(double = 97.0) {}
inline void stop_sampler() {}
inline std::uint64_t sampler_samples() { return 0; }
inline std::uint64_t thread_work_counter() { return 0; }
inline bool sampler_push_frame(const char*) { return false; }
inline void sampler_pop_frame() {}

#else

/// RAII stage zone. Cheap enough for the serial 10 µs analyze path: one
/// TSC read pair plus two relaxed fetch_adds on the thread's shard slot
/// (hardware counters ride only decimated entries). Nested zones of the
/// same stage on the same thread record only at the outermost level, so
/// `analyze` inside `analyze` (the shard serial fallback) never
/// double-counts.
class ZoneScope {
 public:
  explicit ZoneScope(Stage stage);
  ~ZoneScope();

  ZoneScope(const ZoneScope&) = delete;
  ZoneScope& operator=(const ZoneScope&) = delete;

 private:
  std::uint8_t stage_ = 0xff;  ///< 0xff = inactive (profiling disabled).
  bool outer_ = false;         ///< Outermost zone of its stage: records.
  bool sampled_ = false;       ///< Hardware counters read on this entry.
  bool pushed_ = false;        ///< Frame pushed onto the sampler stack.
  std::uint64_t start_ticks_ = 0;
  std::uint64_t start_counters_[4] = {0, 0, 0, 0};
  std::uint64_t start_cpu_ns_ = 0;
};

/// Runtime switch for profiling alone (zones + counter reads). Defaults on;
/// `MHM_PROF=0` in the environment starts it off. The obs-wide switches
/// still gate everything: profiling is active iff `obs::enabled() &&
/// prof_enabled()`.
bool prof_enabled();
void set_prof_enabled(bool on);

/// "perf_event" when a perf_event_open counter group is usable on this
/// process, else "thread_cputime" (probed once, on first use;
/// MHM_PROF_NO_PERF=1 forces the fallback).
const char* counter_source();

/// Folded per-stage state, enum order, shards summed in slot order.
std::vector<StageSnapshot> snapshot_stages();

/// The /profile?format=json document: per-stage wall/IPC/miss rates, the
/// top stage by wall time (umbrella excluded), the attributed fraction of
/// analyze wall time, and the sampler state.
std::string profile_json();

/// Collapsed stacks ("frame;frame;frame <count>"), flamegraph.pl /
/// speedscope "collapsed" flavour. Sampler aggregation when it has
/// samples; otherwise stage wall times rendered as parent-chained stacks
/// weighted in microseconds, so the format is always loadable.
std::string collapsed_stacks();

/// The `== profile ==` section body of .mhmi bundles.
std::string dump_section();

/// Publish prof.* gauges into the metrics registry (scrape-time push —
/// zones never touch the registry on the hot path).
void refresh_registry_metrics();

/// Zero all accumulators and sampler aggregates (tests, bench legs).
void reset();

/// Start/stop the sampling profiler thread. Idempotent; the thread owns
/// no locks while reading the shadow stacks (relaxed/acquire loads only).
void start_sampler(double hz = 97.0);
void stop_sampler();
/// Stacks aggregated since start (0 when never started).
std::uint64_t sampler_samples();

/// Per-thread monotone work counter for coarse rollups (fleet
/// cycles/interval): perf-group cycles when available, else
/// CLOCK_THREAD_CPUTIME_ID nanoseconds — units follow counter_source().
std::uint64_t thread_work_counter();

/// Sampler shadow-stack hooks (internal: SpanScope/ZoneScope call these).
/// `name` must outlive the process (string literals). Returns false when
/// the sampler is inactive or the stack is full — the caller then skips
/// the matching pop.
bool sampler_push_frame(const char* name);
void sampler_pop_frame();

#endif  // MHM_OBS_DISABLED

#define MHM_OBS_CONCAT_INNER_PROF(a, b) a##b
#define MHM_OBS_CONCAT_PROF(a, b) MHM_OBS_CONCAT_INNER_PROF(a, b)

/// Open a stage zone for the rest of the enclosing scope.
#define PROF_ZONE(stage)                                           \
  ::mhm::obs::prof::ZoneScope MHM_OBS_CONCAT_PROF(mhm_prof_zone_,  \
                                                  __LINE__)(       \
      ::mhm::obs::prof::Stage::stage)

}  // namespace mhm::obs::prof
