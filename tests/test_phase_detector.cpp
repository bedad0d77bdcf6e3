#include "core/phase_detector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/rng.hpp"
#include "core/gmm.hpp"

namespace mhm {
namespace {

/// Synthetic phase-structured traces: cell activity depends strongly on
/// interval phase (mod 4), mimicking a hyperperiod of 4 intervals.
HeatMapTrace phased_trace(std::size_t n, std::uint64_t seed,
                          std::size_t phases = 4) {
  Rng rng(seed);
  HeatMapTrace trace;
  for (std::size_t i = 0; i < n; ++i) {
    HeatMap map(16);
    const std::size_t phase = i % phases;
    for (std::size_t c = 0; c < 16; ++c) {
      // Each phase lights up a distinct block of cells.
      const double mean = (c / 4 == phase) ? 500.0 : 50.0;
      map.increment(c, rng.poisson(mean));
    }
    map.interval_index = i;
    trace.push_back(std::move(map));
  }
  return trace;
}

PhaseAwareDetector::Options small_options(std::size_t phases = 4) {
  PhaseAwareDetector::Options opts;
  opts.phases = phases;
  return opts;
}

/// Six-component reduction fitted on the training maps, as
/// AnomalyDetector::train fits it for a fixed L'.
PhaseAwareDetector train_detector(const HeatMapTrace& training,
                                  const HeatMapTrace& validation,
                                  const PhaseAwareDetector::Options& options) {
  return PhaseAwareDetector::train(
      training, validation,
      Eigenmemory::fit_topk(training, {.components = 6}), options);
}

TEST(PhaseAwareDetector, ValidatesInput) {
  const auto trace = phased_trace(40, 1);
  PhaseAwareDetector::Options opts = small_options();
  opts.phases = 0;
  const Eigenmemory reduction = Eigenmemory::fit_topk(trace, {.components = 6});
  EXPECT_THROW(PhaseAwareDetector::train(trace, trace, reduction, opts),
               ConfigError);
  EXPECT_THROW(
      PhaseAwareDetector::train({}, trace, reduction, small_options()),
      ConfigError);
  EXPECT_THROW(
      PhaseAwareDetector::train(trace, {}, reduction, small_options()),
      ConfigError);
  // A reduction fitted on maps of another width.
  Rng rng(3);
  HeatMapTrace narrow_maps;
  for (std::size_t i = 0; i < 20; ++i) {
    HeatMap map(8);
    for (std::size_t c = 0; c < 8; ++c) map.increment(c, rng.poisson(40.0));
    narrow_maps.push_back(std::move(map));
  }
  const Eigenmemory narrow =
      Eigenmemory::fit_topk(narrow_maps, {.components = 2});
  EXPECT_THROW(PhaseAwareDetector::train(trace, trace, narrow, small_options()),
               ConfigError);
}

TEST(PhaseAwareDetector, RejectsUndersampledPhases) {
  // 40 phases but only 40 maps -> 1 map per phase: not enough.
  const auto trace = phased_trace(40, 2);
  EXPECT_THROW(train_detector(trace, trace, small_options(40)), ConfigError);
}

TEST(PhaseAwareDetector, NormalMapsScoreAboveThreshold) {
  const auto train = phased_trace(400, 3);
  const auto valid = phased_trace(200, 4);
  const auto det = train_detector(train, valid, small_options());
  EXPECT_EQ(det.phases(), 4u);

  const auto fresh = phased_trace(200, 5);
  std::size_t alarms = 0;
  for (const auto& map : fresh) alarms += det.anomalous(map);
  EXPECT_LT(static_cast<double>(alarms) / 200.0, 0.08);
}

TEST(PhaseAwareDetector, DetectsOutOfDistributionMap) {
  const auto train = phased_trace(400, 6);
  const auto valid = phased_trace(200, 7);
  const auto det = train_detector(train, valid, small_options());

  HeatMap weird(16);
  for (std::size_t c = 0; c < 16; ++c) weird.increment(c, 500);  // all hot
  weird.interval_index = 0;
  EXPECT_TRUE(det.anomalous(weird));
}

TEST(PhaseAwareDetector, CatchesWrongPatternForPhase) {
  // The signature advantage: a *normal* pattern appearing at the *wrong*
  // phase. A pooled mixture model scores it as normal (the pattern exists);
  // the phase-conditioned detector must flag it.
  const auto train = phased_trace(400, 8);
  const auto valid = phased_trace(200, 9);
  const auto det = train_detector(train, valid, small_options());

  // Build a map that looks exactly like phase 2 but stamp it as phase 0.
  Rng rng(10);
  HeatMap impostor(16);
  for (std::size_t c = 0; c < 16; ++c) {
    const double mean = (c / 4 == 2) ? 500.0 : 50.0;
    impostor.increment(c, rng.poisson(mean));
  }
  impostor.interval_index = 0;  // phase 0
  EXPECT_TRUE(det.anomalous(impostor));

  // The same map at its true phase is normal.
  impostor.interval_index = 2;
  EXPECT_FALSE(det.anomalous(impostor));

  // And a pooled GMM with one component per pattern considers the impostor
  // normal regardless of when it occurs — the contrast this class exists
  // for.
  std::vector<std::vector<double>> reduced;
  for (const auto& m : train) reduced.push_back(det.eigenmemory().project(m));
  Gmm::Options gopts;
  gopts.components = 4;
  gopts.restarts = 4;
  const Gmm pooled = Gmm::fit(reduced, gopts);
  std::vector<double> pooled_valid_scores;
  for (const auto& m : valid) {
    pooled_valid_scores.push_back(
        pooled.log10_density(det.eigenmemory().project(m)));
  }
  const double pooled_theta = quantile(pooled_valid_scores, 0.01);
  const double impostor_score =
      pooled.log10_density(det.eigenmemory().project(impostor));
  EXPECT_GT(impostor_score, pooled_theta);  // pooled model is blind to it
}

TEST(PhaseAwareDetector, ScoreConsistencyBetweenOverloads) {
  const auto train = phased_trace(400, 11);
  const auto valid = phased_trace(200, 12);
  const auto det = train_detector(train, valid, small_options());
  const HeatMap& map = train[7];
  EXPECT_DOUBLE_EQ(det.score(map), det.score(map.as_vector(), 7 % 4));
}

TEST(PhaseAwareDetector, PhaseMeansDiffer) {
  const auto train = phased_trace(400, 13);
  const auto valid = phased_trace(200, 14);
  const auto det = train_detector(train, valid, small_options());
  // Distinct phases must have learned distinct reduced means.
  const auto& m0 = det.phase_mean(0);
  const auto& m1 = det.phase_mean(1);
  double dist = 0.0;
  for (std::size_t k = 0; k < m0.size(); ++k) {
    dist += (m0[k] - m1[k]) * (m0[k] - m1[k]);
  }
  EXPECT_GT(dist, 1.0);
  EXPECT_THROW(det.phase_mean(4), LogicError);
}

// Pinned bit for bit: an FNV-1a digest of the threshold and of every score
// of a fresh trace, from a detector whose reduction is fit_topk with six
// components on its own training maps (captured when the detector still
// fitted that reduction itself).
TEST(PhaseAwareDetector, ScoresArePinned) {
  const auto train = phased_trace(400, 16);
  const auto valid = phased_trace(200, 17);
  const auto det = train_detector(train, valid, small_options());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  fold(det.threshold());
  for (const auto& map : phased_trace(200, 18)) fold(det.score(map));
  EXPECT_EQ(h, 0xf86563bb78600466ULL);
}

TEST(PhaseAwareDetector, DegeneratePhaseDataIsRegularized) {
  // All maps of one phase identical -> singular covariance; the escalating
  // jitter must keep the fit alive.
  HeatMapTrace train;
  Rng rng(15);
  for (std::size_t i = 0; i < 80; ++i) {
    HeatMap map(8);
    if (i % 2 == 0) {
      map.increment(0, 100);  // phase 0: constant
    } else {
      for (std::size_t c = 0; c < 8; ++c) map.increment(c, rng.poisson(40.0));
    }
    map.interval_index = i;
    train.push_back(std::move(map));
  }
  PhaseAwareDetector::Options opts;
  opts.phases = 2;
  EXPECT_NO_THROW(PhaseAwareDetector::train(
      train, train, Eigenmemory::fit_topk(train, {.components = 4}), opts));
}

}  // namespace
}  // namespace mhm
