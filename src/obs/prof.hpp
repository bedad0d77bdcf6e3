#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace mhm::obs::prof {

/// Continuous profiling and tracing through one scope primitive.
///
/// `OBS_SCOPE(kScoreProject)` opens a stage scope for the enclosing scope.
/// Every scope folds into its stage's sharded accumulator: entry/exit reads
/// the TSC (steady_clock off x86) and folds the delta into `kShards`
/// cache-line-padded atomic slots indexed by `obs::thread_shard()`, folded
/// in slot order 0..15 at export, the metrics registry's determinism
/// discipline. Stages off the scoring path (`StageKind::kTraced`) also
/// append a parent-linked SpanRecord to the ring behind /trace
/// (obs/trace.hpp). Nothing a scope records ever feeds back into scoring,
/// so the bit-identity contract is untouched.
///
/// Hardware counters (cycles / instructions / cache misses / branch misses)
/// come from a lazily-opened per-thread `perf_event_open` group, read on a
/// decimated subset of scope entries (the first few, then every 64th) so
/// the syscall cost never rides the hot path; `counter_samples` counts the
/// sampled entries so per-entry rates scale correctly. Where perf events are
/// unavailable (unprivileged containers, CI) the layer falls back to
/// `CLOCK_THREAD_CPUTIME_ID` deltas — `counter_source()` names which source
/// is live, and the same string is stamped into the build-info block.
/// `MHM_PROF_NO_PERF=1` forces the fallback (CI exercises it).
///
/// A low-rate sampling profiler (`start_sampler`, default ~97 Hz — prime,
/// so it never locks onto a periodic workload) walks per-thread shadow
/// stacks of stage names, one frame per outermost scope, and aggregates
/// collapsed stacks ("a;b;c <count>") for flamegraph.pl / speedscope.
///
/// Everything compiles out under MHM_OBS_DISABLE and obeys the runtime
/// kill switches: `MHM_OBS=0` disables scopes with the rest of the layer,
/// `MHM_PROF=0` / `set_prof_enabled(false)` disables the accumulators and
/// counter reads alone (the bench overhead leg toggles this); spans still
/// record.

/// Instrumented stages, in export order. Exports name stages; new stages
/// append.
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
  kPipelineCollect,   ///< pipeline::collect_normal_trace.
  kPipelineTrain,     ///< pipeline::train_pipeline.
  kPipelineProfile,   ///< train_pipeline's training + validation runs.
  kPipelineFitDetector,
  kPcaFit,            ///< Eigenmemory::fit (exact eigensolve).
  kPcaFitTopk,        ///< Eigenmemory::fit_topk.
  kPcaProjectAll,     ///< Eigenmemory::project_all.
  kGmmRestart,        ///< One EM restart inside Gmm::fit.
};

/// Where a stage sits relative to the per-interval scoring path.
enum class StageKind : std::uint8_t {
  kUmbrella,    ///< `analyze`: the denominator of the attributed fraction.
  kAttributed,  ///< `score.*`, `shard.*`: per-interval work inside analyze.
  kTraced,      ///< Everything else: off the scoring path, also a span.
};

struct StageInfo {
  const char* name;  ///< Stable export name ("analyze", "score.project"...).
  StageKind kind;
};

/// The stage table, indexed by Stage.
inline constexpr StageInfo kStages[] = {
    {"analyze", StageKind::kUmbrella},
    {"score.project", StageKind::kAttributed},
    {"score.gmm", StageKind::kAttributed},
    {"score.spe", StageKind::kAttributed},
    {"score.observe", StageKind::kAttributed},
    {"shard.gather", StageKind::kAttributed},
    {"shard.scatter", StageKind::kAttributed},
    {"train.covariance", StageKind::kTraced},
    {"train.eigensolve", StageKind::kTraced},
    {"train.em", StageKind::kTraced},
    {"pipeline.collect_normal_trace", StageKind::kTraced},
    {"pipeline.train", StageKind::kTraced},
    {"pipeline.train.profile", StageKind::kTraced},
    {"pipeline.train.fit_detector", StageKind::kTraced},
    {"pca.fit", StageKind::kTraced},
    {"pca.fit_topk", StageKind::kTraced},
    {"pca.project_all", StageKind::kTraced},
    {"gmm.restart", StageKind::kTraced},
};
inline constexpr std::size_t kStageCount = std::size(kStages);
static_assert(kStageCount == static_cast<std::size_t>(Stage::kGmmRestart) + 1,
              "one table row per Stage");

constexpr const StageInfo& stage_info(Stage stage) {
  return kStages[static_cast<std::size_t>(stage)];
}

/// One stage's folded accumulator state.
struct StageSnapshot {
  const char* name = "";
  std::uint64_t entries = 0;        ///< Outermost scope entries recorded.
  std::uint64_t wall_ns = 0;        ///< Summed wall time (ticks converted).
  std::uint64_t cycles = 0;         ///< Summed over sampled entries.
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t counter_samples = 0;  ///< Entries the counters were read on.
  std::uint64_t cpu_ns = 0;         ///< Fallback-source thread CPU time.
};

#if defined(MHM_OBS_DISABLED)

class Scope {
 public:
  explicit Scope(Stage) {}
  std::uint64_t id() const { return 0; }
};

inline bool prof_enabled() { return false; }
inline void set_prof_enabled(bool) {}
inline const char* counter_source() { return "disabled"; }
inline std::vector<StageSnapshot> snapshot_stages() { return {}; }
inline std::string profile_json() { return "{}"; }
inline std::string collapsed_stacks() { return ""; }
inline std::string dump_section() { return ""; }
inline void reset() {}
inline void start_sampler(double = 97.0) {}
inline void stop_sampler() {}
inline std::uint64_t sampler_samples() { return 0; }
inline std::uint64_t thread_work_counter() { return 0; }

#else

/// RAII stage scope. On the scoring path (umbrella and attributed stages)
/// it costs one TSC read pair plus two relaxed fetch_adds on the thread's
/// shard slot (hardware counters ride only decimated entries) and takes no
/// span id and no lock. Traced stages also take a span id and append one
/// SpanRecord, parented to the thread's innermost open traced scope, at
/// exit. Nested scopes of the same stage on the same thread record only at
/// the outermost level, so `analyze` inside `analyze` (the shard serial
/// fallback) never double-counts.
class Scope {
 public:
  explicit Scope(Stage stage);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Span id of a recording traced scope (0 otherwise).
  std::uint64_t id() const { return id_; }

 private:
  std::uint8_t stage_ = 0xff;  ///< 0xff = inactive (obs disabled).
  bool outer_ = false;         ///< Outermost scope of its stage: records.
  bool timed_ = false;         ///< Profiling on at entry: folds on exit.
  bool sampled_ = false;       ///< Hardware counters read on this entry.
  bool pushed_ = false;        ///< Frame pushed onto the sampler stack.
  std::uint64_t start_ticks_ = 0;
  std::uint64_t start_counters_[4] = {0, 0, 0, 0};
  std::uint64_t start_cpu_ns_ = 0;
  std::uint64_t id_ = 0;       ///< Span id (traced stages only).
  std::uint64_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
};

/// Runtime switch for the accumulators and counter reads. Defaults on;
/// `MHM_PROF=0` in the environment starts it off. The obs-wide switches
/// still gate everything: profiling is active iff `obs::enabled() &&
/// prof_enabled()`.
bool prof_enabled();
void set_prof_enabled(bool on);

/// "perf_event" when a perf_event_open counter group is usable on this
/// process, else "thread_cputime" (probed once, on first use;
/// MHM_PROF_NO_PERF=1 forces the fallback).
const char* counter_source();

/// Folded per-stage state, table order, shards summed in slot order.
std::vector<StageSnapshot> snapshot_stages();

/// The /profile?format=json document: per-stage wall/IPC/miss rates, the
/// top stage by wall time (umbrella excluded), the attributed fraction of
/// analyze wall time, and the sampler state.
std::string profile_json();

/// Collapsed stacks ("frame;frame;frame <count>"), flamegraph.pl /
/// speedscope "collapsed" flavour. Sampler aggregation when it has
/// samples; otherwise stage wall times weighted in microseconds, the
/// attributed stages chained under `analyze`, so the format is always
/// loadable.
std::string collapsed_stacks();

/// The `== profile ==` section body of .mhmi bundles.
std::string dump_section();

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

#endif  // MHM_OBS_DISABLED

#define MHM_OBS_CONCAT_INNER(a, b) a##b
#define MHM_OBS_CONCAT(a, b) MHM_OBS_CONCAT_INNER(a, b)

/// Open a stage scope for the rest of the enclosing scope.
#define OBS_SCOPE(stage)                                            \
  ::mhm::obs::prof::Scope MHM_OBS_CONCAT(mhm_obs_scope_, __LINE__)( \
      ::mhm::obs::prof::Stage::stage)

}  // namespace mhm::obs::prof
