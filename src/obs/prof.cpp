#include "obs/prof.hpp"

#if !defined(MHM_OBS_DISABLED)

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#define MHM_PROF_HAVE_PERF 1
#else
#define MHM_PROF_HAVE_PERF 0
#endif

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace mhm::obs::prof {
namespace {

// ---------------------------------------------------------------------------
// Per-stage sharded accumulators (the metrics registry's fold discipline).

/// Exactly one cache line: eight u64 fields. A scope exit touches only its
/// thread's shard slot, so the hot path never bounces lines between threads.
struct alignas(64) StageShard {
  std::atomic<std::uint64_t> entries{0};
  std::atomic<std::uint64_t> ticks{0};
  std::atomic<std::uint64_t> cycles{0};
  std::atomic<std::uint64_t> instructions{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> branch_misses{0};
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> cpu_ns{0};
};
static_assert(sizeof(StageShard) == 64, "one cache line per shard slot");

StageShard g_stages[kStageCount][kShards];

std::atomic<bool>& prof_flag() {
  static std::atomic<bool> flag{[] {
    const char* v = std::getenv("MHM_PROF");
    return !(v != nullptr && v[0] == '0' && v[1] == '\0');
  }()};
  return flag;
}

// ---------------------------------------------------------------------------
// Tick source: raw TSC on x86-64 (≈8 ns a read, calibrated against
// steady_clock at export time), steady_clock elsewhere.

inline std::uint64_t read_ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return steady_ns();
#endif
}

#if defined(__x86_64__)
struct TickBase {
  std::uint64_t ticks0;
  std::uint64_t ns0;
};
const TickBase& tick_base() {
  static const TickBase base{read_ticks(), steady_ns()};
  return base;
}
#endif

/// ns per tick, from the elapsed (steady_clock, TSC) pair since the base
/// anchor. Export-time only; the baseline is forced to ≥1 ms once so the
/// very first export cannot divide a noise-sized interval.
double ns_per_tick() {
#if defined(__x86_64__)
  const TickBase& base = tick_base();
  std::uint64_t ns = steady_ns();
  while (ns - base.ns0 < 1000000) ns = steady_ns();
  const std::uint64_t ticks = read_ticks();
  if (ticks <= base.ticks0) return 1.0;
  return static_cast<double>(ns - base.ns0) /
         static_cast<double>(ticks - base.ticks0);
#else
  return 1.0;
#endif
}

// ---------------------------------------------------------------------------
// Hardware counters: one perf_event group per thread (cycles leader +
// instructions + cache misses + branch misses), CLOCK_THREAD_CPUTIME_ID
// fallback. The source is probed once, process-wide.

enum class Source : int { kUnknown = 0, kPerf = 1, kCpuTime = 2 };

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

#if MHM_PROF_HAVE_PERF
int open_perf_counter(int group_fd, std::uint32_t type, std::uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = type;
  attr.config = config;
  attr.read_format = PERF_FORMAT_GROUP;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  return static_cast<int>(::syscall(__NR_perf_event_open, &attr, 0, -1,
                                    group_fd, 0));
}

/// Open the 4-counter group for the calling thread; -1 when any member
/// fails (all or nothing — a partial group would skew the ratios).
int open_thread_group() {
  const int leader =
      open_perf_counter(-1, PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
  if (leader < 0) return -1;
  const int members[3] = {
      open_perf_counter(leader, PERF_TYPE_HARDWARE,
                        PERF_COUNT_HW_INSTRUCTIONS),
      open_perf_counter(leader, PERF_TYPE_HARDWARE,
                        PERF_COUNT_HW_CACHE_MISSES),
      open_perf_counter(leader, PERF_TYPE_HARDWARE,
                        PERF_COUNT_HW_BRANCH_MISSES),
  };
  for (const int fd : members) {
    if (fd >= 0) continue;
    for (const int open_fd : members) {
      if (open_fd >= 0) ::close(open_fd);
    }
    ::close(leader);
    return -1;
  }
  return leader;
}

/// Group order matches open order: cycles, instructions, cache, branch.
bool read_group(int fd, std::uint64_t out[4]) {
  std::uint64_t buf[5] = {0, 0, 0, 0, 0};
  const ssize_t n = ::read(fd, buf, sizeof buf);
  if (n != static_cast<ssize_t>(sizeof buf) || buf[0] != 4) return false;
  std::memcpy(out, buf + 1, 4 * sizeof(std::uint64_t));
  return true;
}
#endif  // MHM_PROF_HAVE_PERF

std::atomic<int> g_source{static_cast<int>(Source::kUnknown)};

Source probe_source() {
  const int known = g_source.load(std::memory_order_acquire);
  if (known != static_cast<int>(Source::kUnknown)) {
    return static_cast<Source>(known);
  }
  Source result = Source::kCpuTime;
#if MHM_PROF_HAVE_PERF
  const char* no_perf = std::getenv("MHM_PROF_NO_PERF");
  if (no_perf == nullptr || no_perf[0] != '1') {
    const int fd = open_thread_group();
    if (fd >= 0) {
      std::uint64_t probe[4];
      if (read_group(fd, probe)) result = Source::kPerf;
      ::close(fd);
    }
  }
#endif
  g_source.store(static_cast<int>(result), std::memory_order_release);
  return result;
}

/// Per-thread scope state: nesting depth and decimation counter per stage,
/// plus the thread's (lazily opened) perf group.
struct ThreadProfState {
  std::uint32_t depth[kStageCount] = {};
  std::uint64_t entry_count[kStageCount] = {};
  int perf_fd = -2;  ///< -2 = not yet opened, -1 = unavailable.

  ~ThreadProfState() {
#if MHM_PROF_HAVE_PERF
    if (perf_fd >= 0) ::close(perf_fd);
#endif
  }
};
thread_local ThreadProfState tl_prof;

std::atomic<std::uint64_t> g_next_span_id{1};
/// Innermost open traced scope of the calling thread (0 = none).
thread_local std::uint64_t tl_current_span = 0;

int thread_group_fd() {
  ThreadProfState& st = tl_prof;
  if (st.perf_fd == -2) {
    st.perf_fd = -1;
#if MHM_PROF_HAVE_PERF
    if (probe_source() == Source::kPerf) st.perf_fd = open_thread_group();
#endif
  }
  return st.perf_fd;
}

/// Counter-sample decimation: the first handful of entries (so once-only
/// train stages always get counters), then every 64th.
inline bool sample_this_entry(std::uint64_t n) {
  return n < 8 || (n & 63) == 0;
}

// ---------------------------------------------------------------------------
// Sampling profiler: per-thread shadow stacks of borrowed literal names,
// written with relaxed/release stores by the owning thread and read with
// acquire loads by the sampler thread. A torn read (depth moved mid-walk)
// at worst drops one sample — acceptable for a statistical profile, and
// race-free as far as the memory model (and TSan) is concerned.

constexpr std::size_t kSamplerSlots = 64;
constexpr std::size_t kMaxFrames = 16;

struct ThreadStack {
  std::atomic<std::uint32_t> depth{0};
  std::atomic<const char*> frames[kMaxFrames] = {};
};

ThreadStack g_thread_stacks[kSamplerSlots];
std::atomic<std::uint32_t> g_next_stack_slot{0};
std::atomic<bool> g_sampler_active{false};

thread_local std::int32_t tl_stack_slot = -2;  ///< -2 unclaimed, -1 full.

ThreadStack* claim_stack() {
  if (tl_stack_slot == -2) {
    const std::uint32_t idx =
        g_next_stack_slot.fetch_add(1, std::memory_order_relaxed);
    tl_stack_slot = idx < kSamplerSlots ? static_cast<std::int32_t>(idx) : -1;
  }
  return tl_stack_slot >= 0 ? &g_thread_stacks[tl_stack_slot] : nullptr;
}

struct SamplerState {
  std::mutex mu;
  std::map<std::string, std::uint64_t> agg;  ///< collapsed key -> samples.
  std::uint64_t samples = 0;
  std::thread thread;
  std::atomic<bool> stop{false};
  bool running = false;
};

SamplerState& sampler() {
  static SamplerState* s = new SamplerState;  // Leaked: outlives statics.
  return *s;
}

void sampler_loop(double hz) {
  SamplerState& s = sampler();
  const auto period = std::chrono::nanoseconds(
      static_cast<std::uint64_t>(1e9 / std::max(1.0, hz)));
  std::string key;
  key.reserve(256);
  while (!s.stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(period);
    const std::uint32_t slots = std::min<std::uint32_t>(
        g_next_stack_slot.load(std::memory_order_acquire), kSamplerSlots);
    for (std::uint32_t i = 0; i < slots; ++i) {
      ThreadStack& st = g_thread_stacks[i];
      const std::uint32_t depth = std::min<std::uint32_t>(
          st.depth.load(std::memory_order_acquire), kMaxFrames);
      if (depth == 0) continue;
      key.clear();
      for (std::uint32_t f = 0; f < depth; ++f) {
        const char* name = st.frames[f].load(std::memory_order_acquire);
        if (name == nullptr) {
          key.clear();
          break;
        }
        if (f != 0) key += ';';
        key += name;
      }
      if (key.empty()) continue;
      std::lock_guard<std::mutex> lk(s.mu);
      ++s.agg[key];
      ++s.samples;
    }
  }
}

/// Shadow-stack hooks. `name` must outlive the process (stage-table
/// literals). Push returns false when the sampler is inactive or the stack
/// is full — the caller then skips the matching pop.
bool sampler_push_frame(const char* name) {
  if (!g_sampler_active.load(std::memory_order_relaxed)) return false;
  ThreadStack* st = claim_stack();
  if (st == nullptr) return false;
  const std::uint32_t depth = st->depth.load(std::memory_order_relaxed);
  if (depth >= kMaxFrames) return false;
  st->frames[depth].store(name, std::memory_order_relaxed);
  st->depth.store(depth + 1, std::memory_order_release);
  return true;
}

void sampler_pop_frame() {
  ThreadStack* st = claim_stack();
  if (st == nullptr) return;
  const std::uint32_t depth = st->depth.load(std::memory_order_relaxed);
  if (depth > 0) st->depth.store(depth - 1, std::memory_order_release);
}

}  // namespace

// ---------------------------------------------------------------------------
// Scope.

Scope::Scope(Stage stage) {
  if (!enabled()) return;
  const auto s = static_cast<std::size_t>(stage);
  ThreadProfState& st = tl_prof;
  stage_ = static_cast<std::uint8_t>(s);
  if (st.depth[s]++ != 0) return;  // Nested same-stage scope: depth only.
  outer_ = true;
  pushed_ = sampler_push_frame(kStages[s].name);
  if (kStages[s].kind == StageKind::kTraced) {
    id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = tl_current_span;
    tl_current_span = id_;
    start_ns_ = steady_ns();
  }
  if (!prof_flag().load(std::memory_order_relaxed)) return;
  timed_ = true;
  const std::uint64_t n = st.entry_count[s]++;
  if (sample_this_entry(n)) {
    sampled_ = true;
    if (probe_source() == Source::kPerf) {
      const int fd = thread_group_fd();
      if (fd < 0 || !read_group(fd, start_counters_)) sampled_ = false;
    } else {
      start_cpu_ns_ = thread_cpu_ns();
    }
  }
  start_ticks_ = read_ticks();
}

Scope::~Scope() {
  if (stage_ == 0xff) return;
  const std::size_t s = stage_;
  --tl_prof.depth[s];
  if (!outer_) return;
  if (timed_) {
    const std::uint64_t dt = read_ticks() - start_ticks_;
    StageShard& shard = g_stages[s][thread_shard()];
    shard.entries.fetch_add(1, std::memory_order_relaxed);
    shard.ticks.fetch_add(dt, std::memory_order_relaxed);
    if (sampled_) {
      if (probe_source() == Source::kPerf) {
        std::uint64_t end_counters[4];
        const int fd = thread_group_fd();
        if (fd >= 0 && read_group(fd, end_counters)) {
          shard.cycles.fetch_add(end_counters[0] - start_counters_[0],
                                 std::memory_order_relaxed);
          shard.instructions.fetch_add(end_counters[1] - start_counters_[1],
                                       std::memory_order_relaxed);
          shard.cache_misses.fetch_add(end_counters[2] - start_counters_[2],
                                       std::memory_order_relaxed);
          shard.branch_misses.fetch_add(end_counters[3] - start_counters_[3],
                                        std::memory_order_relaxed);
          shard.samples.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        shard.cpu_ns.fetch_add(thread_cpu_ns() - start_cpu_ns_,
                               std::memory_order_relaxed);
        shard.samples.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (id_ != 0) {
    tl_current_span = parent_;
    // If observability was switched off while the scope was open, drop the
    // span — the invariant is "no records arrive while disabled".
    if (enabled()) {
      SpanBuffer::instance().record(SpanRecord{id_, parent_, kStages[s].name,
                                               thread_shard(), start_ns_,
                                               steady_ns() - start_ns_});
    }
  }
  if (pushed_) sampler_pop_frame();
}

// ---------------------------------------------------------------------------
// Switches and probes.

bool prof_enabled() {
  return prof_flag().load(std::memory_order_relaxed);
}

void set_prof_enabled(bool on) {
  prof_flag().store(on, std::memory_order_relaxed);
}

const char* counter_source() {
  return probe_source() == Source::kPerf ? "perf_event" : "thread_cputime";
}

std::uint64_t thread_work_counter() {
  if (!enabled() || !prof_enabled()) return 0;
#if MHM_PROF_HAVE_PERF
  if (probe_source() == Source::kPerf) {
    const int fd = thread_group_fd();
    std::uint64_t counters[4];
    if (fd >= 0 && read_group(fd, counters)) return counters[0];
  }
#endif
  return thread_cpu_ns();
}

// ---------------------------------------------------------------------------
// Sampler lifecycle and hooks.

void start_sampler(double hz) {
  if (!enabled()) return;
  SamplerState& s = sampler();
  std::lock_guard<std::mutex> lk(s.mu);
  if (s.running) return;
  s.stop.store(false, std::memory_order_release);
  g_sampler_active.store(true, std::memory_order_release);
  s.thread = std::thread(sampler_loop, hz);
  s.running = true;
}

void stop_sampler() {
  SamplerState& s = sampler();
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (!s.running) return;
    s.running = false;
  }
  g_sampler_active.store(false, std::memory_order_release);
  s.stop.store(true, std::memory_order_release);
  s.thread.join();
}

std::uint64_t sampler_samples() {
  SamplerState& s = sampler();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.samples;
}

// ---------------------------------------------------------------------------
// Export.

std::vector<StageSnapshot> snapshot_stages() {
  const double npt = ns_per_tick();
  std::vector<StageSnapshot> out(kStageCount);
  for (std::size_t s = 0; s < kStageCount; ++s) {
    StageSnapshot& snap = out[s];
    snap.name = kStages[s].name;
    std::uint64_t ticks = 0;
    for (std::size_t i = 0; i < kShards; ++i) {  // Slot order 0..15.
      const StageShard& shard = g_stages[s][i];
      snap.entries += shard.entries.load(std::memory_order_relaxed);
      ticks += shard.ticks.load(std::memory_order_relaxed);
      snap.cycles += shard.cycles.load(std::memory_order_relaxed);
      snap.instructions +=
          shard.instructions.load(std::memory_order_relaxed);
      snap.cache_misses +=
          shard.cache_misses.load(std::memory_order_relaxed);
      snap.branch_misses +=
          shard.branch_misses.load(std::memory_order_relaxed);
      snap.counter_samples += shard.samples.load(std::memory_order_relaxed);
      snap.cpu_ns += shard.cpu_ns.load(std::memory_order_relaxed);
    }
    snap.wall_ns =
        static_cast<std::uint64_t>(static_cast<double>(ticks) * npt);
  }
  return out;
}

std::string profile_json() {
  const std::vector<StageSnapshot> stages = snapshot_stages();
  const std::uint64_t analyze_wall =
      stages[static_cast<std::size_t>(Stage::kAnalyze)].wall_ns;
  std::uint64_t attributed_wall = 0;
  const char* top_stage = "";
  std::uint64_t top_wall = 0;
  const char* top_scoring = "";
  std::uint64_t top_scoring_wall = 0;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const bool attributed = kStages[s].kind == StageKind::kAttributed;
    if (attributed) attributed_wall += stages[s].wall_ns;
    if (kStages[s].kind != StageKind::kUmbrella &&
        stages[s].wall_ns > top_wall) {
      top_wall = stages[s].wall_ns;
      top_stage = stages[s].name;
    }
    if (attributed && stages[s].wall_ns > top_scoring_wall) {
      top_scoring_wall = stages[s].wall_ns;
      top_scoring = stages[s].name;
    }
  }
  const double fraction =
      analyze_wall > 0 ? static_cast<double>(attributed_wall) /
                             static_cast<double>(analyze_wall)
                       : 0.0;

  std::string out;
  out.reserve(2048);
  append_fmt(out, "{\"source\":\"%s\",", counter_source());
  {
    SamplerState& s = sampler();
    std::lock_guard<std::mutex> lk(s.mu);
    append_fmt(out, "\"sampler\":{\"active\":%s,\"samples\":%llu},",
               g_sampler_active.load(std::memory_order_relaxed) ? "true"
                                                                : "false",
               static_cast<unsigned long long>(s.samples));
  }
  append_fmt(out,
             "\"analyze_wall_ns\":%llu,\"attributed_wall_ns\":%llu,"
             "\"attributed_fraction\":%.6g,",
             static_cast<unsigned long long>(analyze_wall),
             static_cast<unsigned long long>(attributed_wall), fraction);
  append_fmt(out, "\"top_stage\":\"%s\",\"top_scoring_stage\":\"%s\",",
             top_stage, top_scoring);
  out += "\"stages\":[";
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const StageSnapshot& snap = stages[s];
    if (s != 0) out += ',';
    const double ipc =
        snap.cycles > 0 ? static_cast<double>(snap.instructions) /
                              static_cast<double>(snap.cycles)
                        : 0.0;
    const double wall_per_entry =
        snap.entries > 0 ? static_cast<double>(snap.wall_ns) /
                               static_cast<double>(snap.entries)
                         : 0.0;
    append_fmt(out,
               "{\"stage\":\"%s\",\"entries\":%llu,\"wall_ns\":%llu,"
               "\"wall_ns_per_entry\":%.6g,\"cycles\":%llu,"
               "\"instructions\":%llu,\"ipc\":%.6g,\"cache_misses\":%llu,"
               "\"branch_misses\":%llu,\"counter_samples\":%llu,"
               "\"cpu_ns\":%llu}",
               snap.name, static_cast<unsigned long long>(snap.entries),
               static_cast<unsigned long long>(snap.wall_ns), wall_per_entry,
               static_cast<unsigned long long>(snap.cycles),
               static_cast<unsigned long long>(snap.instructions), ipc,
               static_cast<unsigned long long>(snap.cache_misses),
               static_cast<unsigned long long>(snap.branch_misses),
               static_cast<unsigned long long>(snap.counter_samples),
               static_cast<unsigned long long>(snap.cpu_ns));
  }
  out += "]}";
  return out;
}

std::string collapsed_stacks() {
  {
    SamplerState& s = sampler();
    std::lock_guard<std::mutex> lk(s.mu);
    if (!s.agg.empty()) {
      std::string out;
      out.reserve(64 * s.agg.size());
      for (const auto& [key, count] : s.agg) {
        append_fmt(out, "%s %llu\n", key.c_str(),
                   static_cast<unsigned long long>(count));
      }
      return out;
    }
  }
  // No samples yet (sampler off or just started): derive stacks from the
  // stage accumulators so the collapsed format is always loadable. Weights
  // are microseconds of stage wall time.
  const std::vector<StageSnapshot> stages = snapshot_stages();
  std::string out;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const StageSnapshot& snap = stages[s];
    if (snap.wall_ns == 0) continue;
    append_fmt(out, "%s%s %llu\n",
               kStages[s].kind == StageKind::kAttributed ? "analyze;" : "",
               snap.name,
               static_cast<unsigned long long>(
                   std::max<std::uint64_t>(1, snap.wall_ns / 1000)));
  }
  return out;
}

std::string dump_section() {
  const std::vector<StageSnapshot> stages = snapshot_stages();
  std::string out;
  out.reserve(1024);
  append_fmt(out, "source %s\n", counter_source());
  append_fmt(out, "sampler_samples %llu\n",
             static_cast<unsigned long long>(sampler_samples()));
  for (const StageSnapshot& snap : stages) {
    if (snap.entries == 0) continue;
    const double ipc =
        snap.cycles > 0 ? static_cast<double>(snap.instructions) /
                              static_cast<double>(snap.cycles)
                        : 0.0;
    append_fmt(out,
               "%s entries=%llu wall_ns=%llu cycles=%llu instructions=%llu "
               "ipc=%.3f cache_misses=%llu branch_misses=%llu samples=%llu "
               "cpu_ns=%llu\n",
               snap.name, static_cast<unsigned long long>(snap.entries),
               static_cast<unsigned long long>(snap.wall_ns),
               static_cast<unsigned long long>(snap.cycles),
               static_cast<unsigned long long>(snap.instructions), ipc,
               static_cast<unsigned long long>(snap.cache_misses),
               static_cast<unsigned long long>(snap.branch_misses),
               static_cast<unsigned long long>(snap.counter_samples),
               static_cast<unsigned long long>(snap.cpu_ns));
  }
  return out;
}

void reset() {
  for (std::size_t s = 0; s < kStageCount; ++s) {
    for (std::size_t i = 0; i < kShards; ++i) {
      StageShard& shard = g_stages[s][i];
      shard.entries.store(0, std::memory_order_relaxed);
      shard.ticks.store(0, std::memory_order_relaxed);
      shard.cycles.store(0, std::memory_order_relaxed);
      shard.instructions.store(0, std::memory_order_relaxed);
      shard.cache_misses.store(0, std::memory_order_relaxed);
      shard.branch_misses.store(0, std::memory_order_relaxed);
      shard.samples.store(0, std::memory_order_relaxed);
      shard.cpu_ns.store(0, std::memory_order_relaxed);
    }
  }
  SamplerState& s = sampler();
  std::lock_guard<std::mutex> lk(s.mu);
  s.agg.clear();
  s.samples = 0;
}

}  // namespace mhm::obs::prof

#endif  // !MHM_OBS_DISABLED
