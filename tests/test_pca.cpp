#include "core/pca.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ios>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "linalg/vector_ops.hpp"
#include "test_util.hpp"

namespace mhm {
namespace {

using mhm::testing::expect_vector_near;

/// Synthetic data living (mostly) in a low-dimensional subspace: a mixture
/// of `rank` fixed activity patterns plus noise — the structure MHMs have.
std::vector<std::vector<double>> subspace_data(std::size_t n, std::size_t dim,
                                               std::size_t rank, double noise,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> patterns(rank, std::vector<double>(dim));
  for (auto& p : patterns) {
    for (double& v : p) v = rng.uniform(-1.0, 1.0);
  }
  std::vector<std::vector<double>> data(n, std::vector<double>(dim, 0.0));
  for (auto& x : data) {
    for (const auto& p : patterns) {
      const double w = rng.uniform(0.0, 10.0);
      for (std::size_t i = 0; i < dim; ++i) x[i] += w * p[i];
    }
    for (double& v : x) v += rng.normal(0.0, noise);
  }
  return data;
}

TEST(Eigenmemory, RejectsDegenerateInput) {
  EXPECT_THROW(Eigenmemory::fit(std::vector<std::vector<double>>{}),
               ConfigError);
  EXPECT_THROW(
      Eigenmemory::fit(std::vector<std::vector<double>>{{}, {}}),
      ConfigError);
  Eigenmemory::Options opts;
  opts.components = 5;
  EXPECT_THROW(
      Eigenmemory::fit(std::vector<std::vector<double>>{{1.0, 2.0}}, opts),
      ConfigError);
}

TEST(Eigenmemory, MeanIsEmpiricalMean) {
  const std::vector<std::vector<double>> data = {{1.0, 2.0}, {3.0, 6.0}};
  Eigenmemory::Options opts;
  opts.components = 1;
  const auto em = Eigenmemory::fit(data, opts);
  expect_vector_near(em.mean(), {2.0, 4.0}, 1e-14, "empirical mean");
}

TEST(Eigenmemory, RecoversDominantDirection) {
  // Points along (3,4)/5 with tiny noise: first eigenmemory = that axis.
  Rng rng(1);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 500; ++i) {
    const double t = rng.normal(0.0, 5.0);
    data.push_back({0.6 * t + rng.normal(0.0, 0.01),
                    0.8 * t + rng.normal(0.0, 0.01)});
  }
  Eigenmemory::Options opts;
  opts.components = 1;
  const auto em = Eigenmemory::fit(data, opts);
  const auto u = em.basis().row(0);
  EXPECT_NEAR(std::abs(u[0]), 0.6, 0.01);
  EXPECT_NEAR(std::abs(u[1]), 0.8, 0.01);
}

TEST(Eigenmemory, BasisRowsAreOrthonormal) {
  const auto data = subspace_data(200, 30, 5, 0.1, 2);
  Eigenmemory::Options opts;
  opts.components = 5;
  const auto em = Eigenmemory::fit(data, opts);
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = 0; b < 5; ++b) {
      const double d = linalg::dot(em.basis().row(a), em.basis().row(b));
      EXPECT_NEAR(d, a == b ? 1.0 : 0.0, 1e-9) << "rows " << a << "," << b;
    }
  }
}

TEST(Eigenmemory, EigenvaluesDecreaseAndAreNonNegative) {
  const auto data = subspace_data(300, 25, 6, 0.2, 3);
  Eigenmemory::Options opts;
  opts.components = 10;
  const auto em = Eigenmemory::fit(data, opts);
  for (std::size_t k = 0; k < em.eigenvalues().size(); ++k) {
    EXPECT_GE(em.eigenvalues()[k], 0.0);
    if (k > 0) {
      EXPECT_LE(em.eigenvalues()[k], em.eigenvalues()[k - 1]);
    }
  }
}

TEST(Eigenmemory, FullRankProjectionReconstructsExactly) {
  // With L' = L the projection is lossless (paper §4.2: "When we use L
  // eigenmemories, we can exactly represent the original input MHMs").
  const auto data = subspace_data(50, 6, 6, 1.0, 4);
  Eigenmemory::Options opts;
  opts.components = 6;
  opts.allow_gram_trick = false;
  const auto em = Eigenmemory::fit(data, opts);
  for (const auto& x : data) {
    const auto rec = em.reconstruct(em.project(x));
    expect_vector_near(rec, x, 1e-8, "lossless reconstruction");
    EXPECT_NEAR(em.reconstruction_error(x), 0.0, 1e-7);
  }
}

class EigenmemoryComponentSweep
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenmemoryComponentSweep, ReconstructionErrorShrinksWithComponents) {
  const auto data = subspace_data(150, 20, 8, 0.3, 5);
  const std::size_t k = GetParam();
  Eigenmemory::Options opts;
  opts.components = k;
  const auto em = Eigenmemory::fit(data, opts);
  Eigenmemory::Options opts_more;
  opts_more.components = k + 2;
  const auto em_more = Eigenmemory::fit(data, opts_more);
  double err_k = 0.0;
  double err_more = 0.0;
  for (const auto& x : data) {
    err_k += em.reconstruction_error(x);
    err_more += em_more.reconstruction_error(x);
  }
  EXPECT_LE(err_more, err_k + 1e-9);
  EXPECT_GE(em_more.variance_explained(), em.variance_explained() - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Components, EigenmemoryComponentSweep,
                         ::testing::Values(1, 2, 4, 6, 8, 10));

TEST(Eigenmemory, AutomaticComponentCountHitsVarianceTarget) {
  const auto data = subspace_data(200, 40, 4, 0.01, 6);
  Eigenmemory::Options opts;
  opts.components = 0;
  opts.variance_target = 0.999;
  const auto em = Eigenmemory::fit(data, opts);
  // 4 strong patterns + tiny noise: ~4 components reach 99.9 %.
  EXPECT_GE(em.components(), 3u);
  EXPECT_LE(em.components(), 6u);
  EXPECT_GE(em.variance_explained(), 0.999);
}

TEST(Eigenmemory, VarianceTargetValidation) {
  const auto data = subspace_data(20, 5, 2, 0.1, 7);
  Eigenmemory::Options opts;
  opts.components = 0;
  opts.variance_target = 0.0;
  EXPECT_THROW(Eigenmemory::fit(data, opts), ConfigError);
  opts.variance_target = 1.5;
  EXPECT_THROW(Eigenmemory::fit(data, opts), ConfigError);
}

TEST(Eigenmemory, GramTrickMatchesDirectPath) {
  // N < L triggers the Gram path; with the trick disabled the direct
  // covariance path must give the same subspace. Compare projections of a
  // probe vector up to sign.
  const auto data = subspace_data(20, 40, 3, 0.05, 8);
  Eigenmemory::Options gram_opts;
  gram_opts.components = 3;
  gram_opts.allow_gram_trick = true;
  Eigenmemory::Options direct_opts = gram_opts;
  direct_opts.allow_gram_trick = false;
  const auto em_gram = Eigenmemory::fit(data, gram_opts);
  const auto em_direct = Eigenmemory::fit(data, direct_opts);

  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(em_gram.eigenvalues()[k], em_direct.eigenvalues()[k],
                1e-6 * (1.0 + em_direct.eigenvalues()[k]))
        << "eigenvalue " << k;
    std::vector<double> g(em_gram.basis().row(k).begin(),
                          em_gram.basis().row(k).end());
    std::vector<double> d(em_direct.basis().row(k).begin(),
                          em_direct.basis().row(k).end());
    mhm::testing::expect_vector_near_up_to_sign(g, d, 1e-5);
  }
}

TEST(Eigenmemory, ProjectionOfMeanIsZero) {
  const auto data = subspace_data(100, 15, 3, 0.2, 9);
  Eigenmemory::Options opts;
  opts.components = 3;
  const auto em = Eigenmemory::fit(data, opts);
  const auto w = em.project(em.mean());
  for (double v : w) EXPECT_NEAR(v, 0.0, 1e-10);
}

TEST(Eigenmemory, ProjectRejectsWrongLength) {
  const auto data = subspace_data(50, 10, 2, 0.1, 10);
  Eigenmemory::Options opts;
  opts.components = 2;
  const auto em = Eigenmemory::fit(data, opts);
  EXPECT_THROW(em.project(std::vector<double>(9, 0.0)), LogicError);
}

/// Bit-level equality: a one-ulp drift in the projection kernel must fail.
bool same_bits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

// The serial projection kernel against its reference definition — mean
// shift, one linalg::dot per component, then the ‖Φ‖² loop — bit for bit,
// for double and count input, across single-pass (L' ≤ 12) and split-pass
// (13, 25) component counts.
TEST(EigenmemoryProjectPass, MatchesPerComponentDotsBitForBit) {
  for (const std::size_t l : {1u, 7u, 368u, 1472u}) {
    for (const std::size_t k_count : {1u, 5u, 9u, 12u, 13u, 25u}) {
      SCOPED_TRACE("L=" + std::to_string(l) + " L'=" +
                   std::to_string(k_count));
      Rng rng(l * 1000 + k_count);
      std::vector<double> mean(l);
      for (double& m : mean) m = rng.uniform(0.0, 60.0);
      linalg::Matrix basis(k_count, l, 0.0);
      for (std::size_t k = 0; k < k_count; ++k) {
        for (double& v : basis.row(k)) v = rng.normal();
        linalg::normalize(basis.row(k));
      }
      const Eigenmemory em = Eigenmemory::from_parts(
          mean, basis, std::vector<double>(k_count, 1.0),
          std::vector<double>(k_count, 1.0));
      std::vector<std::uint32_t> counts(l);
      for (auto& c : counts) c = static_cast<std::uint32_t>(rng.poisson(40.0));
      const std::vector<double> row(counts.begin(), counts.end());

      std::vector<double> phi(l);
      for (std::size_t i = 0; i < l; ++i) phi[i] = row[i] - mean[i];
      std::vector<double> want(k_count);
      for (std::size_t k = 0; k < k_count; ++k) {
        want[k] = linalg::dot(em.basis().row(k), phi);
      }
      double want_sq = 0.0;
      for (double c : phi) want_sq += c * c;

      std::vector<double> w(k_count);
      const double sq = em.project_pass(row, w);
      std::vector<double> raw(l, -1.0);
      std::vector<double> wc(k_count);
      const double sq_counts = em.project_pass(counts, raw, wc);
      EXPECT_TRUE(same_bits(sq, want_sq)) << std::hexfloat << sq;
      EXPECT_TRUE(same_bits(sq_counts, want_sq)) << std::hexfloat << sq_counts;
      EXPECT_EQ(raw, row);
      // project_batch's ragged tail (3 < kBatchTile lanes) runs the same
      // kernel per lane, writing into the lane's column of the L' × 3 block.
      const std::span<const double> lanes[] = {row, row, row};
      std::vector<double> tiles, wsoa, lane_sq;
      em.project_batch(lanes, tiles, wsoa, &lane_sq);
      for (std::size_t k = 0; k < k_count; ++k) {
        EXPECT_TRUE(same_bits(w[k], want[k]))
            << "weight " << k << ": " << std::hexfloat << w[k] << " vs "
            << want[k];
        EXPECT_TRUE(same_bits(wc[k], want[k]))
            << "count weight " << k << ": " << std::hexfloat << wc[k]
            << " vs " << want[k];
        for (std::size_t b = 0; b < 3; ++b) {
          EXPECT_TRUE(same_bits(wsoa[k * 3 + b], want[k]))
              << "batch lane " << b << " weight " << k;
        }
      }
      for (double v : lane_sq) EXPECT_TRUE(same_bits(v, want_sq));
    }
  }
}

TEST(Eigenmemory, FitsHeatMapsDirectly) {
  HeatMapTrace maps;
  Rng rng(11);
  for (int i = 0; i < 30; ++i) {
    HeatMap m(12);
    for (std::size_t c = 0; c < 12; ++c) {
      m.increment(c, rng.poisson(10.0 * static_cast<double>(c % 3 + 1)));
    }
    maps.push_back(m);
  }
  Eigenmemory::Options opts;
  opts.components = 4;
  const auto em = Eigenmemory::fit(maps, opts);
  EXPECT_EQ(em.input_dim(), 12u);
  EXPECT_EQ(em.components(), 4u);
  const auto w = em.project(maps.front());
  EXPECT_EQ(w.size(), 4u);
}

TEST(Eigenmemory, ConstantDataHasZeroVariance) {
  const std::vector<std::vector<double>> data(10,
                                              std::vector<double>{5.0, 5.0});
  Eigenmemory::Options opts;
  opts.components = 1;
  const auto em = Eigenmemory::fit(data, opts);
  // Everything projects to ~0 and variance_explained degenerates to 1.
  const auto w = em.project(data.front());
  EXPECT_NEAR(w[0], 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(em.variance_explained(), 1.0);
}

// ---------------------------------------------------------------------------
// fit_topk cross-check: the fast top-k paths (Gram trick for small N,
// randomized subspace iteration for large N) must agree with the exact
// full-eigensolve oracle on the retained subspace. Agreement is measured
// basis-free: principal angles between the two k-dimensional subspaces
// (via projection residuals), plus eigenvalue / explained-variance drift.
// The exact solver stays wired in as the oracle here — tier-1 runs this.

/// sin of the largest principal angle between span(exact rows) and
/// span(fast rows): for each oracle direction u, project onto the fast
/// subspace and measure what is lost.
double max_principal_angle_sin(const Eigenmemory& exact,
                               const Eigenmemory& fast, std::size_t k) {
  double worst = 0.0;
  for (std::size_t a = 0; a < k; ++a) {
    const auto u = exact.basis().row(a);
    double captured = 0.0;
    for (std::size_t b = 0; b < k; ++b) {
      const double c = linalg::dot(u, fast.basis().row(b));
      captured += c * c;
    }
    const double s2 = std::max(0.0, 1.0 - captured);
    worst = std::max(worst, std::sqrt(s2));
  }
  return worst;
}

struct TopkCase {
  std::size_t n;
  std::size_t dim;
};

class EigenmemoryTopkCrossCheck : public ::testing::TestWithParam<TopkCase> {};

TEST_P(EigenmemoryTopkCrossCheck, MatchesExactSolverOnTopkSubspace) {
  const auto [n, dim] = GetParam();
  constexpr std::size_t kRank = 9;
  const auto data = subspace_data(n, dim, kRank, 0.05, 20150607);

  Eigenmemory::Options exact_opts;
  exact_opts.components = kRank;
  exact_opts.allow_gram_trick = false;  // the oracle: full L×L eigensolve
  const auto exact = Eigenmemory::fit(data, exact_opts);

  Eigenmemory::TopkOptions fast_opts;
  fast_opts.components = kRank;
  // N > L cases exercise the randomized route: a gram_limit below
  // min(N, L) keeps them off the exact one.
  if (n > dim) fast_opts.gram_limit = dim / 2;
  const auto fast = Eigenmemory::fit_topk(data, fast_opts);

  ASSERT_EQ(fast.components(), kRank);
  EXPECT_EQ(fast.input_dim(), dim);

  // Same top-k subspace: every principal angle below tolerance.
  EXPECT_LT(max_principal_angle_sin(exact, fast, kRank), 1e-6);

  // Eigenvalues and explained variance track the oracle.
  for (std::size_t k = 0; k < kRank; ++k) {
    EXPECT_NEAR(fast.eigenvalues()[k], exact.eigenvalues()[k],
                1e-6 * (1.0 + exact.eigenvalues()[k]))
        << "eigenvalue " << k;
  }
  EXPECT_NEAR(fast.variance_explained(kRank), exact.variance_explained(kRank),
              1e-6);

  // Projections agree up to per-direction sign (the eigensolvers are free
  // to flip any axis).
  const auto we = exact.project(data.front());
  const auto wf = fast.project(data.front());
  for (std::size_t k = 0; k < kRank; ++k) {
    EXPECT_NEAR(std::abs(wf[k]), std::abs(we[k]),
                1e-6 * (1.0 + std::abs(we[k])))
        << "projection weight " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SampleCounts, EigenmemoryTopkCrossCheck,
    ::testing::Values(TopkCase{50, 256},    // N < L, small: Gram route
                      TopkCase{500, 640},   // N < L, mid: Gram route
                      TopkCase{5000, 256}), // N > L: randomized route
    [](const ::testing::TestParamInfo<TopkCase>& param_info) {
      return "n" + std::to_string(param_info.param.n) + "d" +
             std::to_string(param_info.param.dim);
    });

TEST(EigenmemoryTopk, DeterministicAcrossThreadCounts) {
  const auto data = subspace_data(1200, 96, 6, 0.1, 77);
  Eigenmemory::TopkOptions opts;
  opts.components = 6;
  opts.gram_limit = 48;  // below min(N, L) = 96: the randomized route
  set_global_threads(1);
  const auto serial = Eigenmemory::fit_topk(data, opts);
  set_global_threads(4);
  const auto parallel = Eigenmemory::fit_topk(data, opts);
  set_global_threads(0);
  ASSERT_EQ(serial.components(), parallel.components());
  for (std::size_t k = 0; k < serial.components(); ++k) {
    EXPECT_EQ(serial.eigenvalues()[k], parallel.eigenvalues()[k]);
    const auto a = serial.basis().row(k);
    const auto b = parallel.basis().row(k);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "basis(" << k << "," << i << ")";
    }
  }
}

TEST(EigenmemoryTopk, RejectsDegenerateRequests) {
  const auto data = subspace_data(40, 16, 3, 0.1, 13);
  Eigenmemory::TopkOptions opts;
  opts.components = 0;
  EXPECT_THROW(Eigenmemory::fit_topk(data, opts), ConfigError);
  opts.components = 17;  // > min(N, L) = 16
  EXPECT_THROW(Eigenmemory::fit_topk(data, opts), ConfigError);
  EXPECT_THROW(
      Eigenmemory::fit_topk(std::vector<std::vector<double>>{}, opts),
      ConfigError);
}

TEST(EigenmemoryTopk, RandomizedBasisRowsAreOrthonormal) {
  // gram_limit below min(N, L) = 64 forces the randomized route.
  const auto data = subspace_data(2000, 64, 5, 0.2, 14);
  Eigenmemory::TopkOptions opts;
  opts.components = 5;
  opts.gram_limit = 32;
  const auto em = Eigenmemory::fit_topk(data, opts);
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = 0; b < 5; ++b) {
      const double d = linalg::dot(em.basis().row(a), em.basis().row(b));
      EXPECT_NEAR(d, a == b ? 1.0 : 0.0, 1e-9) << "rows " << a << "," << b;
    }
  }
}

/// FNV-1a over the IEEE-754 bit patterns of `xs`, folded into `h`.
std::uint64_t fnv1a_bits(std::span<const double> xs,
                         std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (double x : xs) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(EigenmemoryTopk, RandomizedRouteIsPinnedBitForBit) {
  // Pins the randomized range finder's exact output: any change to the
  // addition order of its kernels (Z = A·Q, Y = Aᵀ·Z / N, the Gram–Schmidt
  // sweep, the Rayleigh–Ritz product) shows up here. L = 100 and
  // m = 6 + 8 = 14 leave ragged tails for any blocked kernel width.
  const auto data = subspace_data(603, 100, 6, 0.1, 31);
  Eigenmemory::TopkOptions opts;
  opts.components = 6;
  opts.gram_limit = 32;  // below min(N, L): the randomized route
  const std::vector<double> kEigenvalues = {
      0x1.8e03629d31e0ep+8, 0x1.63da690b52504p+8, 0x1.08bc597b1b228p+8,
      0x1.db1dd25c91859p+7, 0x1.bd38241c10196p+7, 0x1.3a030c75eca8dp+7};
  constexpr double kVarianceExplained = 0x1.ffb55b76898b2p-1;
  // FNV-1a of the basis rows followed by the m Ritz values.
  constexpr std::uint64_t kDigest = 0xce9560a562fc7a72ULL;
  for (std::size_t threads : {1, 4}) {
    set_global_threads(threads);
    const auto em = Eigenmemory::fit_topk(data, opts);
    ASSERT_EQ(em.components(), kEigenvalues.size());
    for (std::size_t k = 0; k < kEigenvalues.size(); ++k) {
      EXPECT_EQ(em.eigenvalues()[k], kEigenvalues[k])
          << "eigenvalue " << k << " at " << threads << " threads: "
          << std::hexfloat << em.eigenvalues()[k];
    }
    EXPECT_EQ(em.variance_explained(), kVarianceExplained);
    std::uint64_t h = fnv1a_bits(em.basis().data());
    h = fnv1a_bits(em.spectrum(), h);
    EXPECT_EQ(h, kDigest) << "basis/spectrum digest at " << threads
                          << " threads";
  }
  set_global_threads(0);
}

TEST(Eigenmemory, SpectrumIsFullLength) {
  const auto data = subspace_data(60, 12, 4, 0.3, 12);
  Eigenmemory::Options opts;
  opts.components = 2;
  const auto em = Eigenmemory::fit(data, opts);
  EXPECT_EQ(em.spectrum().size(), 12u);   // direct path: L eigenvalues
  EXPECT_EQ(em.eigenvalues().size(), 2u); // retained subset
}

}  // namespace
}  // namespace mhm
