#include "core/gmm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace mhm {
namespace {

constexpr double kLog2Pi = 1.8378770664093453;

/// Samples from a known 2-component 2-D mixture.
std::vector<std::vector<double>> two_cluster_data(std::size_t n,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> data;
  data.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) {
      data.push_back({rng.normal(-5.0, 0.5), rng.normal(0.0, 0.5)});
    } else {
      data.push_back({rng.normal(5.0, 1.0), rng.normal(5.0, 1.0)});
    }
  }
  return data;
}

Gmm::Options fast_options(std::size_t j) {
  Gmm::Options opts;
  opts.components = j;
  opts.restarts = 4;
  opts.max_iterations = 150;
  return opts;
}

TEST(Gmm, RejectsDegenerateInput) {
  EXPECT_THROW(Gmm::fit({}), ConfigError);
  EXPECT_THROW(Gmm::fit({{1.0}, {2.0}}, fast_options(3)), ConfigError);
  EXPECT_THROW(Gmm::fit({{1.0}, {2.0, 3.0}}, fast_options(1)), ConfigError);
  EXPECT_THROW(Gmm::fit({{1.0}}, fast_options(0)), ConfigError);
}

TEST(Gmm, SingleGaussianRecoversMoments) {
  Rng rng(1);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 5000; ++i) {
    data.push_back({rng.normal(3.0, 2.0), rng.normal(-1.0, 0.5)});
  }
  const Gmm model = Gmm::fit(data, fast_options(1));
  ASSERT_EQ(model.component_count(), 1u);
  const auto& c = model.components()[0];
  EXPECT_NEAR(c.weight, 1.0, 1e-9);
  EXPECT_NEAR(c.mean[0], 3.0, 0.1);
  EXPECT_NEAR(c.mean[1], -1.0, 0.05);
  EXPECT_NEAR(c.covariance(0, 0), 4.0, 0.3);
  EXPECT_NEAR(c.covariance(1, 1), 0.25, 0.03);
  EXPECT_NEAR(c.covariance(0, 1), 0.0, 0.1);
}

TEST(Gmm, LogDensityMatchesClosedForm1D) {
  // Standard normal: log f(x) = -x^2/2 - ln(2π)/2.
  Rng rng(2);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 20000; ++i) data.push_back({rng.normal()});
  Gmm::Options opts = fast_options(1);
  opts.covariance_floor = 0.0;
  const Gmm model = Gmm::fit(data, opts);
  for (double x : {-2.0, -0.5, 0.0, 1.0, 2.5}) {
    const double expected = -0.5 * x * x - 0.5 * kLog2Pi;
    EXPECT_NEAR(model.log_density({x}), expected, 0.05) << "x=" << x;
  }
}

TEST(Gmm, RecoversTwoClusters) {
  const auto data = two_cluster_data(4000, 3);
  const Gmm model = Gmm::fit(data, fast_options(2));
  ASSERT_EQ(model.component_count(), 2u);
  // Identify components by mean.
  const auto& c0 = model.components()[0];
  const auto& c1 = model.components()[1];
  const auto& left = c0.mean[0] < c1.mean[0] ? c0 : c1;
  const auto& right = c0.mean[0] < c1.mean[0] ? c1 : c0;
  EXPECT_NEAR(left.mean[0], -5.0, 0.2);
  EXPECT_NEAR(left.weight, 0.3, 0.03);
  EXPECT_NEAR(right.mean[0], 5.0, 0.2);
  EXPECT_NEAR(right.mean[1], 5.0, 0.2);
  EXPECT_NEAR(right.weight, 0.7, 0.03);
}

TEST(Gmm, WeightsSumToOne) {
  const auto data = two_cluster_data(500, 4);
  for (std::size_t j : {1u, 2u, 3u, 5u}) {
    const Gmm model = Gmm::fit(data, fast_options(j));
    double sum = 0.0;
    for (const auto& c : model.components()) {
      EXPECT_GE(c.weight, 0.0);
      sum += c.weight;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "J=" << j;
  }
}

TEST(Gmm, ResponsibilitiesSumToOneAndPickRightCluster) {
  const auto data = two_cluster_data(2000, 5);
  const Gmm model = Gmm::fit(data, fast_options(2));
  const auto g_left = model.responsibilities({-5.0, 0.0});
  const auto g_right = model.responsibilities({5.0, 5.0});
  EXPECT_NEAR(g_left[0] + g_left[1], 1.0, 1e-9);
  EXPECT_NEAR(g_right[0] + g_right[1], 1.0, 1e-9);
  EXPECT_NE(model.classify({-5.0, 0.0}), model.classify({5.0, 5.0}));
  EXPECT_GT(*std::max_element(g_left.begin(), g_left.end()), 0.99);
}

TEST(Gmm, DensityIntegratesToOneMonteCarlo) {
  // ∫ f ≈ mean of f over a uniform box covering the support, times area.
  const auto data = two_cluster_data(2000, 6);
  const Gmm model = Gmm::fit(data, fast_options(2));
  Rng rng(7);
  const double x_lo = -10.0, x_hi = 10.0, y_lo = -5.0, y_hi = 10.0;
  double sum = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    sum += std::exp(model.log_density(
        {rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi)}));
  }
  const double integral =
      sum / n * (x_hi - x_lo) * (y_hi - y_lo);
  EXPECT_NEAR(integral, 1.0, 0.05);
}

TEST(Gmm, AnomaliesScoreLowerThanInliers) {
  const auto data = two_cluster_data(2000, 8);
  const Gmm model = Gmm::fit(data, fast_options(2));
  const double inlier = model.log_density({5.0, 5.0});
  const double outlier = model.log_density({0.0, -20.0});
  EXPECT_GT(inlier - outlier, 10.0);
}

TEST(Gmm, Log10DensityIsNaturalLogOverLn10) {
  const auto data = two_cluster_data(500, 9);
  const Gmm model = Gmm::fit(data, fast_options(2));
  const std::vector<double> x = {1.0, 2.0};
  EXPECT_NEAR(model.log10_density(x), model.log_density(x) / std::log(10.0),
              1e-12);
}

TEST(Gmm, SampleRoundTrip) {
  // Samples drawn from the fit model should score like training data.
  const auto data = two_cluster_data(2000, 10);
  const Gmm model = Gmm::fit(data, fast_options(2));
  Rng rng(11);
  double sample_ll = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    sample_ll += model.log_density(model.sample(rng));
  }
  const double train_ll = model.total_log_likelihood(data) /
                          static_cast<double>(data.size());
  EXPECT_NEAR(sample_ll / n, train_ll, 0.5);
}

TEST(Gmm, MoreComponentsNeverHurtTrainingLikelihood) {
  const auto data = two_cluster_data(800, 12);
  double prev = -std::numeric_limits<double>::infinity();
  for (std::size_t j : {1u, 2u, 4u}) {
    const Gmm model = Gmm::fit(data, fast_options(j));
    const double ll = model.total_log_likelihood(data);
    EXPECT_GE(ll, prev - 5.0) << "J=" << j;  // small slack: EM is local
    prev = ll;
  }
}

TEST(Gmm, DeterministicForSameSeed) {
  const auto data = two_cluster_data(300, 13);
  const Gmm a = Gmm::fit(data, fast_options(3));
  const Gmm b = Gmm::fit(data, fast_options(3));
  EXPECT_DOUBLE_EQ(a.log_density({0.0, 0.0}), b.log_density({0.0, 0.0}));
}

TEST(Gmm, ParameterCountFormula) {
  const auto data = two_cluster_data(300, 14);
  const Gmm model = Gmm::fit(data, fast_options(3));
  // d=2: per component 2 + 3 = 5; 3 components + 2 free weights = 17.
  EXPECT_EQ(model.parameter_count(), 17u);
}

TEST(Gmm, BicSelectsTrueComponentCount) {
  const auto data = two_cluster_data(3000, 15);
  std::size_t chosen = 0;
  Gmm::Options opts = fast_options(0);
  opts.restarts = 3;
  const Gmm model = Gmm::select_components(data, 1, 5, opts, &chosen);
  EXPECT_EQ(chosen, 2u);
  EXPECT_EQ(model.component_count(), 2u);
}

TEST(Gmm, SelectComponentsValidatesRange) {
  const auto data = two_cluster_data(100, 16);
  EXPECT_THROW(Gmm::select_components(data, 0, 3, fast_options(1)),
               ConfigError);
  EXPECT_THROW(Gmm::select_components(data, 4, 2, fast_options(1)),
               ConfigError);
}

TEST(Gmm, HandlesDuplicatePointsGracefully) {
  // Degenerate data (all identical): regularization must keep EM alive.
  std::vector<std::vector<double>> data(50, std::vector<double>{1.0, 2.0});
  const Gmm model = Gmm::fit(data, fast_options(2));
  EXPECT_TRUE(std::isfinite(model.log_density({1.0, 2.0})));
  EXPECT_GT(model.log_density({1.0, 2.0}), model.log_density({100.0, 2.0}));
}

TEST(Gmm, HighDimensionalFitStaysStable) {
  // 9-D data (the paper's reduced dimensionality) with 5 components.
  Rng rng(17);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 600; ++i) {
    std::vector<double> x(9);
    const int cluster = static_cast<int>(rng.uniform_int(0, 4));
    for (std::size_t d = 0; d < 9; ++d) {
      x[d] = rng.normal(static_cast<double>(cluster) * 3.0, 1.0);
    }
    data.push_back(std::move(x));
  }
  Gmm::Options opts = fast_options(5);
  const Gmm model = Gmm::fit(data, opts);
  EXPECT_EQ(model.component_count(), 5u);
  for (const auto& x : data) {
    EXPECT_TRUE(std::isfinite(model.log_density(x)));
  }
}

TEST(Gmm, LogLikelihoodGaugeIsTheLastRestartsFinalEStep) {
  // /state serves core.gmm.log_likelihood. Each fit leaves it at the last
  // E-step log-likelihood of its highest-numbered restart, whichever
  // worker finishes last.
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  const auto data = two_cluster_data(400, 23);
  obs::Gauge& gauge = obs::Registry::instance().gauge(
      "core.gmm.log_likelihood",
      "training log-likelihood after the most recent EM iteration");
  obs::Counter& iterations = obs::Registry::instance().counter(
      "core.gmm.em_iterations", "EM iterations run across fits and restarts");
  std::vector<std::uint64_t> counted;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_global_threads(threads);
    gauge.set(0.0);
    const std::uint64_t before = iterations.value();
    (void)Gmm::fit(data, fast_options(3));
    counted.push_back(iterations.value() - before);
    EXPECT_EQ(gauge.value(), -0x1.3129717d872e4p+10)
        << "at " << threads << " threads: " << std::hexfloat << gauge.value();
  }
  set_global_threads(0);
  // em_iterations still sums every restart's iterations.
  EXPECT_EQ(counted[0], counted[1]);
  EXPECT_GT(counted[0], fast_options(3).restarts);
}

TEST(KmeansPlusPlus, ReturnsRequestedCenters) {
  const auto data = two_cluster_data(200, 18);
  Rng rng(19);
  const auto centers = kmeans_plus_plus_init(data, 4, rng);
  EXPECT_EQ(centers.size(), 4u);
  for (const auto& c : centers) EXPECT_EQ(c.size(), 2u);
}

TEST(KmeansPlusPlus, CentersSpreadAcrossClusters) {
  const auto data = two_cluster_data(1000, 20);
  Rng rng(21);
  const auto centers = kmeans_plus_plus_init(data, 2, rng);
  // The two centers should land in different clusters (x sign differs)
  // with overwhelming probability given the separation.
  EXPECT_LT(centers[0][0] * centers[1][0], 0.0);
}

TEST(KmeansPlusPlus, HandlesAllIdenticalPoints) {
  std::vector<std::vector<double>> data(10, std::vector<double>{1.0});
  Rng rng(22);
  const auto centers = kmeans_plus_plus_init(data, 3, rng);
  EXPECT_EQ(centers.size(), 3u);
}

}  // namespace
}  // namespace mhm
