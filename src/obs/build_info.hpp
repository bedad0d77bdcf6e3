#pragma once

#include <string>

namespace mhm::obs {

/// Build identification stamped on every artifact that leaves the process:
/// the /version endpoint and every `.mhmi` incident bundle carry the same
/// block, so a bundle examined offline names the exact build (and SIMD
/// dispatch tier) that produced it.
struct BuildInfo {
  std::string git;       ///< `git describe` at build time ("unknown" off-tree).
  std::string compiler;  ///< __VERSION__ of the compiler that built mhm_obs.
  std::string simd;      ///< Runtime-selected projection tier: avx512/avx2/generic.
  bool obs_disabled = false;  ///< True when built with MHM_OBS_DISABLE.
};

const BuildInfo& build_info();

/// Key-value text lines "<prefix>git <...>\n<prefix>compiler <...>\n..." —
/// the `.mhmi` header block.
std::string build_info_text(const std::string& prefix);

/// One-line JSON object (the /version response body).
std::string build_info_json();

}  // namespace mhm::obs
