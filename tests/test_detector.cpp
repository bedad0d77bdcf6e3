#include "core/detector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "engine/engine.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace mhm {
namespace {

/// Normal "reduced MHM"-like data: 3 activity patterns in 20 dimensions.
struct SyntheticWorld {
  std::vector<std::vector<double>> patterns;
  Rng rng{1234};

  explicit SyntheticWorld(std::uint64_t seed) : rng(seed) {
    for (int p = 0; p < 3; ++p) {
      std::vector<double> pattern(20);
      for (double& v : pattern) v = rng.uniform(0.0, 100.0);
      patterns.push_back(std::move(pattern));
    }
  }

  std::vector<double> normal_sample() {
    const auto& p =
        patterns[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    std::vector<double> x = p;
    for (double& v : x) v += rng.normal(0.0, 2.0);
    return x;
  }

  std::vector<double> anomalous_sample() {
    std::vector<double> x = patterns[0];
    for (double& v : x) v += rng.normal(0.0, 2.0);
    // A new activity the training never saw: shift a block of cells.
    for (int i = 5; i < 12; ++i) x[i] += 40.0;
    return x;
  }

  std::vector<std::vector<double>> batch(std::size_t n, bool anomalous) {
    std::vector<std::vector<double>> out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(anomalous ? anomalous_sample() : normal_sample());
    }
    return out;
  }
};

/// Trained models are scored through an engine session.
engine::Session session_for(const AnomalyDetector& det) {
  return engine::DetectionEngine(det.snapshot()).new_session();
}

AnomalyDetector::Options small_options() {
  AnomalyDetector::Options opts;
  opts.pca.components = 5;
  opts.gmm.components = 3;
  opts.gmm.restarts = 3;
  return opts;
}

TEST(ThresholdCalibrator, QuantileSemantics) {
  std::vector<double> scores;
  for (int i = 0; i < 1000; ++i) scores.push_back(static_cast<double>(i));
  const ThresholdCalibrator cal(scores);
  EXPECT_NEAR(cal.at(0.01).log10_value, 9.99, 0.5);
  EXPECT_NEAR(cal.at(0.5).log10_value, 499.5, 1.0);
  EXPECT_LT(cal.theta_05().log10_value, cal.theta_1().log10_value);
  EXPECT_DOUBLE_EQ(cal.theta_05().p, 0.005);
  EXPECT_DOUBLE_EQ(cal.theta_1().p, 0.01);
}

TEST(ThresholdCalibrator, RejectsBadInput) {
  EXPECT_THROW(ThresholdCalibrator({}), ConfigError);
  const ThresholdCalibrator cal({1.0, 2.0});
  EXPECT_THROW(cal.at(0.0), ConfigError);
  EXPECT_THROW(cal.at(1.0), ConfigError);
}

TEST(AnomalyDetector, TrainRejectsEmptySets) {
  SyntheticWorld world(1);
  const auto normal = world.batch(50, false);
  EXPECT_THROW(
      AnomalyDetector::train(std::vector<std::vector<double>>{}, normal, {}),
      ConfigError);
  EXPECT_THROW(
      AnomalyDetector::train(normal, std::vector<std::vector<double>>{}, {}),
      ConfigError);
}

TEST(AnomalyDetector, NormalScoresAboveAnomalousScores) {
  SyntheticWorld world(2);
  const auto det = AnomalyDetector::train(world.batch(600, false),
                                          world.batch(200, false),
                                          small_options());
  engine::Session session = session_for(det);
  double normal_mean = 0.0;
  double anomaly_mean = 0.0;
  const int n = 100;
  for (std::uint64_t i = 0; i < n; ++i) {
    normal_mean += session.analyze(world.normal_sample(), i).log10_density;
    anomaly_mean += session.analyze(world.anomalous_sample(), i).log10_density;
  }
  EXPECT_GT(normal_mean / n, anomaly_mean / n + 5.0);
}

TEST(AnomalyDetector, FalsePositiveRateTracksP) {
  // The paper's construction: θ_p is the p-quantile of held-out normal
  // scores, so fresh normal data should alarm at a rate near p.
  SyntheticWorld world(3);
  AnomalyDetector::Options opts = small_options();
  opts.primary_p = 0.05;
  const auto det = AnomalyDetector::train(world.batch(800, false),
                                          world.batch(400, false), opts);
  engine::Session session = session_for(det);
  std::size_t alarms = 0;
  const std::size_t n = 1000;
  for (std::size_t i = 0; i < n; ++i) {
    alarms += session.analyze(world.normal_sample(), i).anomalous;
  }
  const double fp_rate = static_cast<double>(alarms) / n;
  EXPECT_GT(fp_rate, 0.01);
  EXPECT_LT(fp_rate, 0.12);
}

TEST(AnomalyDetector, DetectsDistributionShift) {
  SyntheticWorld world(4);
  const auto det = AnomalyDetector::train(world.batch(600, false),
                                          world.batch(300, false),
                                          small_options());
  engine::Session session = session_for(det);
  std::size_t detected = 0;
  const std::size_t n = 200;
  for (std::size_t i = 0; i < n; ++i) {
    detected += session.analyze(world.anomalous_sample(), i).anomalous;
  }
  EXPECT_GT(static_cast<double>(detected) / n, 0.9);
}

TEST(AnomalyDetector, VerdictCarriesMetadata) {
  SyntheticWorld world(5);
  const auto det = AnomalyDetector::train(world.batch(300, false),
                                          world.batch(150, false),
                                          small_options());
  const auto v = session_for(det).analyze(world.normal_sample(), 42);
  EXPECT_EQ(v.interval_index, 42u);
  EXPECT_TRUE(std::isfinite(v.log10_density));
  EXPECT_LT(v.nearest_pattern, det.gmm().component_count());
  EXPECT_GT(v.analysis_time.count(), 0);
}

TEST(AnomalyDetector, TimingHistogramAccumulates) {
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";

  SyntheticWorld world(6);
  const auto det = AnomalyDetector::train(world.batch(300, false),
                                          world.batch(150, false),
                                          small_options());
  engine::Session session = session_for(det);
  obs::Histogram& hist = StreamObserver::analysis_time_histogram();
  hist.reset();
  for (std::uint64_t i = 0; i < 10; ++i) {
    (void)session.analyze(world.normal_sample(), i);
  }
  EXPECT_EQ(hist.count(), 10u);
  EXPECT_GT(hist.sum(), 0.0);

  obs::set_enabled(obs_was_enabled);
}

TEST(AnomalyDetector, JournalMatchesVerdictsBitForBit) {
  // A session's decision journal must be a faithful record of what
  // analyze() returned — same density bits, same alarm, same pattern — plus
  // the reduced coordinates of the projection that produced that density.
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";

  SyntheticWorld world(11);
  const auto det = AnomalyDetector::train(world.batch(500, false),
                                          world.batch(200, false),
                                          small_options());
  engine::Session session = session_for(det);

  std::vector<std::vector<double>> samples;
  std::vector<Verdict> verdicts;
  for (std::uint64_t i = 0; i < 50; ++i) {
    samples.push_back(i % 5 == 4 ? world.anomalous_sample()
                                 : world.normal_sample());
    verdicts.push_back(session.analyze(samples.back(), i));
  }

  const auto records = session.journal().snapshot();
  ASSERT_EQ(records.size(), verdicts.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const auto& rec = records[i];
    const auto& v = verdicts[i];
    EXPECT_EQ(rec.interval_index, v.interval_index);
    EXPECT_EQ(rec.log10_density, v.log10_density);  // bit-for-bit
    EXPECT_EQ(rec.alarm, v.anomalous);
    EXPECT_EQ(rec.nearest_pattern, v.nearest_pattern);
    EXPECT_EQ(rec.threshold, det.primary_threshold().log10_value);
    // The stored projection is exactly what the eigenmemory produces.
    EXPECT_EQ(rec.reduced_coords, det.eigenmemory().project(samples[i]));
    if (rec.alarm) {
      EXPECT_FALSE(rec.top_cells.empty());
    } else {
      EXPECT_TRUE(rec.top_cells.empty());
    }
  }

  std::size_t journal_alarms = session.journal().alarms().size();
  std::size_t verdict_alarms = 0;
  for (const auto& v : verdicts) verdict_alarms += v.anomalous;
  EXPECT_EQ(journal_alarms, verdict_alarms);
  EXPECT_GT(verdict_alarms, 0u);  // the injected samples must trip alarms

  obs::set_enabled(obs_was_enabled);
}

TEST(AnomalyDetector, AnalyzeHeatMapOverload) {
  // Build maps whose cells follow a fixed pattern.
  Rng rng(7);
  HeatMapTrace train_maps;
  HeatMapTrace valid_maps;
  auto make_map = [&](std::uint64_t idx) {
    HeatMap m(16);
    for (std::size_t c = 0; c < 16; ++c) {
      m.increment(c, rng.poisson(50.0 + 10.0 * static_cast<double>(c % 4)));
    }
    m.interval_index = idx;
    return m;
  };
  for (std::uint64_t i = 0; i < 200; ++i) train_maps.push_back(make_map(i));
  for (std::uint64_t i = 0; i < 100; ++i) valid_maps.push_back(make_map(i));

  AnomalyDetector::Options opts;
  opts.pca.components = 4;
  opts.gmm.components = 2;
  opts.gmm.restarts = 2;
  const auto det = AnomalyDetector::train(train_maps, valid_maps, opts);
  const auto v = session_for(det).analyze(train_maps.front());
  EXPECT_EQ(v.interval_index, 0u);
  EXPECT_FALSE(v.anomalous);  // training data must look normal
}

TEST(TrafficVolumeDetector, BandContainsNormalVolumes) {
  Rng rng(8);
  std::vector<double> volumes;
  for (int i = 0; i < 500; ++i) volumes.push_back(rng.normal(1e5, 5e3));
  const TrafficVolumeDetector det(volumes, 0.01);
  EXPECT_LT(det.lower_bound(), 1e5);
  EXPECT_GT(det.upper_bound(), 1e5);
  EXPECT_FALSE(det.anomalous(1e5));
  EXPECT_TRUE(det.anomalous(2e5));
  EXPECT_TRUE(det.anomalous(1e4));
}

TEST(TrafficVolumeDetector, RejectsBadParameters) {
  EXPECT_THROW(TrafficVolumeDetector({}, 0.01), ConfigError);
  EXPECT_THROW(TrafficVolumeDetector({1.0}, 0.0), ConfigError);
  EXPECT_THROW(TrafficVolumeDetector({1.0}, 0.5), ConfigError);
}

TEST(TrafficVolumeDetector, FromTraceUsesTotals) {
  HeatMapTrace maps;
  for (int i = 0; i < 50; ++i) {
    HeatMap m(4);
    m.increment(0, 100 + (i % 5));
    maps.push_back(m);
  }
  const auto det = TrafficVolumeDetector::from_trace(maps, 0.05);
  EXPECT_FALSE(det.anomalous(maps.front()));
  HeatMap burst(4);
  burst.increment(0, 100000);
  EXPECT_TRUE(det.anomalous(burst));
}

TEST(NearestNeighborDetector, FlagsFarPoints) {
  SyntheticWorld world(9);
  const NearestNeighborDetector det(world.batch(300, false),
                                    world.batch(100, false), 0.01);
  EXPECT_FALSE(det.anomalous(world.normal_sample()));
  EXPECT_TRUE(det.anomalous(world.anomalous_sample()));
}

TEST(NearestNeighborDetector, NearestDistanceIsZeroForStoredPoint) {
  const std::vector<std::vector<double>> train = {{1.0, 2.0}, {3.0, 4.0}};
  const NearestNeighborDetector det(train, train, 0.1);
  EXPECT_DOUBLE_EQ(det.nearest_distance({1.0, 2.0}), 0.0);
}

TEST(NearestNeighborDetector, StorageCostIsRawTrainingSet) {
  SyntheticWorld world(10);
  const auto train = world.batch(100, false);
  const NearestNeighborDetector det(train, world.batch(20, false), 0.01);
  EXPECT_EQ(det.stored_maps(), 100u);
  EXPECT_EQ(det.storage_bytes(), 100u * 20u * sizeof(double));
}

TEST(NearestNeighborDetector, RejectsEmptySets) {
  const std::vector<std::vector<double>> some = {{1.0}};
  EXPECT_THROW(NearestNeighborDetector({}, some, 0.1), ConfigError);
  EXPECT_THROW(NearestNeighborDetector(some, {}, 0.1), ConfigError);
}

// --- SPE detection: every Verdict carries the PCA residual, and its
// threshold is the (1 − p) quantile of the validation maps' SPE. The suite
// keeps the name of the standalone SPE scorer these cases first tested. ---

/// Cells 0..7 active around distinct means, cells 8..19 identically cold
/// (zero variance) — the MHM covariance shape.
std::vector<std::vector<double>> structured_maps(std::size_t n,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> out;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(20, 0.0);
    const double activity = rng.uniform(0.5, 1.5);
    for (std::size_t c = 0; c < 8; ++c) {
      x[c] = activity * 100.0 * static_cast<double>(c + 1) +
             rng.normal(0.0, 5.0);
    }
    out.push_back(std::move(x));
  }
  return out;
}

/// A detector with `components` eigenmemories (and one Gaussian) trained on
/// 300 structured maps and calibrated on `validation`.
std::shared_ptr<const ModelSnapshot> structured_model(
    std::size_t components,
    const std::vector<std::vector<double>>& validation) {
  AnomalyDetector::Options opts;
  opts.pca.components = components;
  opts.gmm.components = 1;
  opts.gmm.restarts = 1;
  return AnomalyDetector::train(structured_maps(300, 1), validation, opts)
      .snapshot();
}

double spe_of(const ModelSnapshot& model, const std::vector<double>& map) {
  ScoreScratch scratch;
  return score_snapshot(model, map, 0, scratch).spe;
}

class SpeDetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    validation_ = structured_maps(150, 2);
    model_ = structured_model(2, validation_);
    std::vector<double> spes;
    for (const auto& x : validation_) spes.push_back(spe_of(*model_, x));
    threshold_ = quantile(spes, 1.0 - 0.01);
  }
  std::vector<std::vector<double>> validation_;
  std::shared_ptr<const ModelSnapshot> model_;
  double threshold_ = 0.0;
};

TEST_F(SpeDetectorTest, VerdictSpeMatchesReconstructionResidual) {
  // The verdict takes the ‖Φ‖² − ‖w‖² shortcut; the definition is the
  // energy of map − reconstruct(project(map)).
  auto maps = structured_maps(50, 19);
  maps.push_back(maps.front());
  for (std::size_t c = 8; c <= 12; ++c) maps.back()[c] += 500.0;
  for (const auto& map : maps) {
    const auto approx = model_->pca.reconstruct(model_->pca.project(map));
    double residual = 0.0;
    for (std::size_t i = 0; i < map.size(); ++i) {
      residual += (map[i] - approx[i]) * (map[i] - approx[i]);
    }
    ASSERT_GT(residual, 0.0);
    EXPECT_LE(std::abs(spe_of(*model_, map) - residual), 1e-9 * residual);
  }
}

TEST_F(SpeDetectorTest, NormalMapsHaveSmallSpe) {
  std::size_t alarms = 0;
  const auto fresh = structured_maps(400, 3);
  for (const auto& x : fresh) alarms += spe_of(*model_, x) > threshold_;
  // Calibrated for ~1 % FP; allow slack for distribution shift.
  EXPECT_LT(static_cast<double>(alarms) / 400.0, 0.06);
}

TEST_F(SpeDetectorTest, CatchesOrthogonalDeviation) {
  // A burst into cold cells (8..12) lies orthogonal to the retained basis:
  // the projected weights barely move, but the residual explodes. This is
  // the blind spot SPE exists to close (EXPERIMENTS.md E7 note).
  std::vector<double> map = structured_maps(1, 4)[0];
  for (std::size_t c = 8; c <= 12; ++c) map[c] += 500.0;
  EXPECT_GT(spe_of(*model_, map), 10.0 * threshold_);
}

TEST_F(SpeDetectorTest, ProjectedWeightsBarelySeeOrthogonalDeviation) {
  // Companion assertion: the reduced representation itself changes little,
  // demonstrating why the GMM path alone misses this class of anomaly.
  std::vector<double> normal_map = structured_maps(1, 5)[0];
  std::vector<double> attacked = normal_map;
  for (std::size_t c = 8; c <= 12; ++c) attacked[c] += 500.0;
  const auto w_normal = model_->pca.project(normal_map);
  const auto w_attacked = model_->pca.project(attacked);
  double weight_shift = 0.0;
  for (std::size_t k = 0; k < w_normal.size(); ++k) {
    weight_shift += std::abs(w_attacked[k] - w_normal[k]);
  }
  const double spe_shift =
      spe_of(*model_, attacked) - spe_of(*model_, normal_map);
  // The residual grows by ~5*500^2 = 1.25e6; the weights move by O(100).
  EXPECT_GT(spe_shift, 1e5);
  EXPECT_LT(weight_shift, 1e3);
  EXPECT_GT(spe_of(*model_, attacked), threshold_);
}

TEST_F(SpeDetectorTest, SpeIsZeroInFullRankBasis) {
  // Eight eigenmemories span every direction the training maps vary in,
  // so training-like maps reconstruct exactly up to round-off.
  const auto full = structured_model(8, validation_);
  const auto& map = validation_[0];
  double energy = 0.0;
  for (std::size_t i = 0; i < map.size(); ++i) {
    const double d = map[i] - full->pca.mean()[i];
    energy += d * d;
  }
  EXPECT_LE(spe_of(*full, map), 1e-9 * energy);
  EXPECT_GT(spe_of(*model_, map), 1.0);
  const auto one = structured_model(1, validation_);
  EXPECT_GT(spe_of(*one, map), spe_of(*model_, map));
}

// --- Post-alarm forensics: obs::rank_cells_by_z against a trained
// detector's CellBaseline, the ranking the decision journal stamps on its
// alarms. The suite keeps the name of the class these cases first tested.

CellBaseline structured_baseline(std::size_t n, std::uint64_t seed) {
  AnomalyDetector::Options opts;
  opts.pca.components = 2;
  opts.gmm.components = 1;
  opts.gmm.restarts = 1;
  const auto model = AnomalyDetector::train(structured_maps(n, seed),
                                            structured_maps(50, seed + 100),
                                            opts)
                         .snapshot();
  return *model->baseline;
}

std::vector<obs::CellContribution> explain(const CellBaseline& baseline,
                                           const std::vector<double>& map,
                                           std::size_t k) {
  std::vector<obs::CellContribution> out;
  obs::rank_cells_by_z(map, baseline.mean, baseline.stddev, k, out);
  return out;
}

TEST(AnomalyExplainer, LearnsPerCellStatistics) {
  const CellBaseline baseline = structured_baseline(500, 6);
  ASSERT_EQ(baseline.mean.size(), 20u);
  ASSERT_EQ(baseline.stddev.size(), 20u);
  // Active cell 3 has mean ~ activity-mean * 400.
  EXPECT_NEAR(baseline.mean[3], 400.0, 30.0);
  EXPECT_GT(baseline.stddev[3], 10.0);
  // Cold cells have zero mean and zero std.
  EXPECT_DOUBLE_EQ(baseline.mean[15], 0.0);
  EXPECT_DOUBLE_EQ(baseline.stddev[15], 0.0);
}

TEST(AnomalyExplainer, RanksInjectedDeviationFirst) {
  const CellBaseline baseline = structured_baseline(300, 7);
  std::vector<double> map = structured_maps(1, 8)[0];
  map[14] += 5000.0;  // cold cell suddenly hot
  const auto top = explain(baseline, map, 5);
  ASSERT_EQ(top.size(), 5u);
  EXPECT_EQ(top[0].cell, 14u);
  EXPECT_GT(top[0].z_score, 10.0);
  EXPECT_DOUBLE_EQ(top[0].expected, 0.0);
  EXPECT_NEAR(top[0].observed, 5000.0, 1.0);
}

TEST(AnomalyExplainer, ZScoresAreSigned) {
  const CellBaseline baseline = structured_baseline(300, 9);
  std::vector<double> map = structured_maps(1, 10)[0];
  map[7] = 0.0;  // activity that *disappeared* (e.g. killed task)
  const auto top = explain(baseline, map, 3);
  bool found_negative = false;
  for (const auto& d : top) {
    if (d.cell == 7) {
      EXPECT_LT(d.z_score, -3.0);
      found_negative = true;
    }
  }
  EXPECT_TRUE(found_negative);
}

TEST(AnomalyExplainer, KLargerThanCellsClamps) {
  const CellBaseline baseline = structured_baseline(50, 11);
  EXPECT_EQ(explain(baseline, structured_maps(1, 12)[0], 100).size(), 20u);
}

}  // namespace
}  // namespace mhm
