#include "core/snapshot.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/prof.hpp"

namespace mhm {

ThresholdCalibrator::ThresholdCalibrator(std::vector<double> validation_log10)
    : scores_(std::move(validation_log10)) {
  if (scores_.empty()) {
    throw ConfigError("ThresholdCalibrator: empty validation set");
  }
}

Threshold ThresholdCalibrator::at(double p) const {
  if (p <= 0.0 || p >= 1.0) {
    throw ConfigError("ThresholdCalibrator::at: p must be in (0,1)");
  }
  return Threshold{.p = p, .log10_value = quantile(scores_, p)};
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::assemble(
    Eigenmemory pca, Gmm gmm, ThresholdCalibrator calibrator, double primary_p,
    std::shared_ptr<const CellBaseline> baseline, std::uint64_t version) {
  if (gmm.dimension() != pca.components()) {
    throw ConfigError(
        "ModelSnapshot::assemble: GMM dimension does not match the "
        "eigenmemory count");
  }
  const Threshold primary = calibrator.at(primary_p);
  return std::make_shared<const ModelSnapshot>(
      ModelSnapshot{.pca = std::move(pca),
                    .gmm = std::move(gmm),
                    .calibrator = std::move(calibrator),
                    .primary = primary,
                    .baseline = std::move(baseline),
                    .version = version});
}

namespace {

/// The score around one projection pass: `project` fills scratch.reduced
/// and returns ‖Φ‖². One projection + one responsibilities pass yields
/// density and nearest pattern together; the scratch buffers reach their
/// final size on the first interval and every later call is
/// allocation-free.
template <typename Project>
Verdict score_with(const ModelSnapshot& snapshot, std::uint64_t interval_index,
                   ScoreScratch& scratch, Project&& project) {
  const auto t0 = std::chrono::steady_clock::now();
  double phi_sq;
  {
    OBS_SCOPE(kScoreProject);
    scratch.reduced.resize(snapshot.pca.components());
    phi_sq = project();
  }
  double log10_density;
  std::size_t pattern;
  {
    OBS_SCOPE(kScoreGmm);
    const double ln_density = snapshot.gmm.responsibilities_into(
        scratch.reduced, scratch.gmm, scratch.gamma);
    log10_density = ln_density / kLn10;
    pattern = static_cast<std::size_t>(
        std::max_element(scratch.gamma.begin(), scratch.gamma.end()) -
        scratch.gamma.begin());
  }
  const auto t1 = std::chrono::steady_clock::now();

  Verdict v;
  v.interval_index = interval_index;
  v.log10_density = log10_density;
  v.anomalous = log10_density < snapshot.primary.log10_value;
  v.nearest_pattern = pattern;
  v.model_version = snapshot.version;
  v.analysis_time =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0);
  // SPE: the basis rows are orthonormal, so the reconstruction residual
  // ‖Φ − B^T w‖² is ‖Φ‖² − ‖w‖² — no reconstruction, no allocation.
  // Untimed: analysis_time stays the §5.4 measurement.
  OBS_SCOPE(kScoreSpe);
  double w_sq = 0.0;
  for (double c : scratch.reduced) w_sq += c * c;
  v.spe = std::max(0.0, phi_sq - w_sq);
  return v;
}

}  // namespace

Verdict score_snapshot(const ModelSnapshot& snapshot,
                       std::span<const double> raw,
                       std::uint64_t interval_index, ScoreScratch& scratch) {
  return score_with(snapshot, interval_index, scratch, [&] {
    return snapshot.pca.project_pass(raw, scratch.reduced);
  });
}

Verdict score_snapshot(const ModelSnapshot& snapshot, const HeatMap& map,
                       ScoreScratch& scratch) {
  return score_with(snapshot, map.interval_index, scratch, [&] {
    scratch.raw.resize(map.cell_count());
    return snapshot.pca.project_pass(map.counts(), scratch.raw,
                                     scratch.reduced);
  });
}

void ScoreBatch::clear(std::size_t input_dim) {
  input_dim_ = input_dim;
  raws_.clear();
  intervals_.clear();
  model_version = 0;
  batch_time = std::chrono::nanoseconds{0};
}

void ScoreBatch::push(std::span<const double> raw,
                      std::uint64_t interval_index) {
  MHM_ASSERT(raw.size() == input_dim_, "ScoreBatch::push: bad map length");
  raws_.push_back(raw);
  intervals_.push_back(interval_index);
}

Verdict ScoreBatch::verdict(std::size_t b) const {
  MHM_ASSERT(b < size() && log10_density.size() == size(),
             "ScoreBatch::verdict: unscored or out-of-range sample");
  Verdict v;
  v.interval_index = intervals_[b];
  v.log10_density = log10_density[b];
  v.anomalous = anomalous[b] != 0;
  v.nearest_pattern = nearest[b];
  v.spe = spe[b];
  v.model_version = model_version;
  v.analysis_time = batch_time / static_cast<std::int64_t>(size());
  return v;
}

void ScoreBatch::extract_reduced(std::size_t b, std::vector<double>& out) const {
  const std::size_t n = size();
  const std::size_t k_count = n == 0 ? 0 : reduced.size() / n;
  out.resize(k_count);
  for (std::size_t k = 0; k < k_count; ++k) out[k] = reduced[k * n + b];
}

void score_snapshot_batch(const ModelSnapshot& snapshot, ScoreBatch& batch,
                          BatchScoreScratch& scratch) {
  const std::size_t n = batch.size();
  batch.model_version = snapshot.version;
  if (n == 0) {
    batch.batch_time = std::chrono::nanoseconds{0};
    return;
  }
  // Timed region mirrors score_snapshot(): projection + mixture density +
  // verdict columns; the SPE identity stays outside the clock.
  const auto t0 = std::chrono::steady_clock::now();
  {
    OBS_SCOPE(kScoreProject);
    snapshot.pca.project_batch(batch.raws(), batch.phi, batch.reduced,
                               &scratch.phi_sq);
  }
  {
    OBS_SCOPE(kScoreGmm);
    batch.ln_density.resize(n);
    snapshot.gmm.responsibilities_batch(batch.reduced, n, scratch.gmm,
                                        batch.terms, batch.gamma,
                                        batch.ln_density);
    batch.log10_density.resize(n);
    batch.anomalous.resize(n);
    batch.nearest.resize(n);
    const std::size_t j_count = snapshot.gmm.component_count();
    for (std::size_t b = 0; b < n; ++b) {
      const double log10_density = batch.ln_density[b] / kLn10;
      batch.log10_density[b] = log10_density;
      batch.anomalous[b] =
          log10_density < snapshot.primary.log10_value ? 1 : 0;
      // First strictly-greatest responsibility — std::max_element's tie rule.
      // The argmax must run over gamma (not terms): exp can round two distinct
      // terms to equal responsibilities, and the serial path breaks that tie
      // on gamma order.
      std::size_t best = 0;
      for (std::size_t j = 1; j < j_count; ++j) {
        if (batch.gamma[best * n + b] < batch.gamma[j * n + b]) best = j;
      }
      batch.nearest[b] = best;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  batch.batch_time =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0);

  // SPE columns: ‖Φ‖² was folded into the projection pass; ‖w‖² accumulates
  // here in ascending-k order — the serial loop over scratch.reduced.
  OBS_SCOPE(kScoreSpe);
  const std::size_t k_count = snapshot.pca.components();
  scratch.w_sq.assign(n, 0.0);
  batch.spe.resize(n);
  for (std::size_t k = 0; k < k_count; ++k) {
    const double* w = batch.reduced.data() + k * n;
    for (std::size_t b = 0; b < n; ++b) scratch.w_sq[b] += w[b] * w[b];
  }
  for (std::size_t b = 0; b < n; ++b) {
    batch.spe[b] = std::max(0.0, scratch.phi_sq[b] - scratch.w_sq[b]);
  }
}

}  // namespace mhm
