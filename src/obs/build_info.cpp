#include "obs/build_info.hpp"

#include "obs/export.hpp"
#include "obs/prof.hpp"

namespace mhm::obs {

/// `git describe` of the checkout at build time (generated build_git.cpp).
extern const char* const kBuildGit;

namespace {

/// The runtime-selected SIMD tier of the batch projection kernels. Kept in
/// sync with the dispatch in core/pca.cpp: the tier is a pure function of
/// the target triple and __builtin_cpu_supports, and obs cannot call into
/// core (the dependency points the other way), so the probe is repeated
/// here under the identical preprocessor condition.
const char* probe_simd_tier() {
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx512f") != 0) return "avx512";
  if (__builtin_cpu_supports("avx2") != 0) return "avx2";
#endif
  return "generic";
}

BuildInfo make_build_info() {
  BuildInfo info;
  info.git = kBuildGit;
#if defined(__VERSION__)
  info.compiler = __VERSION__;
#else
  info.compiler = "unknown";
#endif
  info.simd = probe_simd_tier();
#if defined(MHM_OBS_DISABLED)
  info.obs_disabled = true;
#else
  info.obs_disabled = false;
#endif
  return info;
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info = make_build_info();
  return info;
}

std::string build_info_text(const std::string& prefix) {
  const BuildInfo& info = build_info();
  std::string out;
  out.reserve(256);
  out += prefix + "git " + info.git + "\n";
  out += prefix + "compiler " + info.compiler + "\n";
  out += prefix + "simd " + info.simd + "\n";
  out += prefix + "obs " + (info.obs_disabled ? "disabled" : "enabled") + "\n";
  // Probed lazily, not part of the static BuildInfo: the perf_event probe
  // should run only when someone renders the block, not at first obs use.
  out += prefix + "counters " + prof::counter_source() + "\n";
  return out;
}

std::string build_info_json() {
  const BuildInfo& info = build_info();
  std::string out;
  out.reserve(256);
  out += "{\"git\":\"" + json_escape(info.git) + "\",\"compiler\":\"" +
         json_escape(info.compiler) + "\",\"simd\":\"" +
         json_escape(info.simd) + "\",\"obs_disabled\":" +
         (info.obs_disabled ? "true" : "false") + ",\"counters\":\"" +
         json_escape(prof::counter_source()) + '"';
  out += "}";
  return out;
}

}  // namespace mhm::obs
