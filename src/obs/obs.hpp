#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

/// Observability kill switches.
///
/// Runtime: the MHM_OBS environment variable. Unset or any value other than
/// "0" enables observability; MHM_OBS=0 turns every metric increment, span
/// record and journal append into a cheap early-return (one relaxed atomic
/// load). `set_enabled()` overrides the environment at runtime — the
/// overhead bench and the no-op tests flip it without re-exec'ing.
///
/// Compile time: building with -DMHM_OBS_DISABLED (CMake option
/// MHM_OBS_DISABLE) pins `enabled()` to a constant false so the optimizer
/// can delete the instrumentation entirely.
namespace mhm::obs {

/// steady_clock in nanoseconds: the one clock behind every obs timestamp,
/// duration and rate limit.
inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if defined(MHM_OBS_DISABLED)

constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
inline void mark_analysis() {}
inline double last_analysis_age_seconds() { return -1.0; }
inline std::uint64_t last_analysis_ns() { return 0; }

#else

namespace detail {
/// The process-wide switch, initialized once from MHM_OBS.
std::atomic<bool>& enabled_flag();
}  // namespace detail

inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

/// Liveness heartbeat: each scoring call (Session::analyze, one per
/// analyze_shard) stamps the monotonic clock while the layer is enabled;
/// /healthz reports the age of the newest stamp so an external agent can
/// tell "process up" from "process up and analyzing".
void mark_analysis();
/// Seconds since the last mark_analysis() (-1 before the first one).
double last_analysis_age_seconds();
/// The newest stamp itself, on the steady_ns() clock (0 before the first).
std::uint64_t last_analysis_ns();

#endif

}  // namespace mhm::obs
