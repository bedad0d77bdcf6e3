#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen_sym.hpp"
#include "test_util.hpp"

namespace mhm::linalg {
namespace {

using mhm::testing::expect_matrix_near;
using mhm::testing::expect_vector_near;
using mhm::testing::random_spd;

TEST(Cholesky, FactorizesKnownMatrix) {
  // A = [[4,2],[2,3]] -> L = [[2,0],[1,sqrt(2)]].
  const Matrix a = Matrix::from_rows({{4.0, 2.0}, {2.0, 3.0}});
  const Cholesky chol(a);
  EXPECT_NEAR(chol.lower()(0, 0), 2.0, 1e-14);
  EXPECT_NEAR(chol.lower()(1, 0), 1.0, 1e-14);
  EXPECT_NEAR(chol.lower()(1, 1), std::sqrt(2.0), 1e-14);
  EXPECT_NEAR(chol.lower()(0, 1), 0.0, 0.0);
}

class CholeskyPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskyPropertyTest, LLtReconstructsInput) {
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, 100 + n);
  const Cholesky chol(a);
  const Matrix llt = multiply(chol.lower(), chol.lower().transposed());
  expect_matrix_near(llt, a, 1e-9 * static_cast<double>(n), "L L^T");
}

TEST_P(CholeskyPropertyTest, SolveSatisfiesSystem) {
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, 200 + n);
  Rng rng(n);
  Vector b(n);
  for (double& v : b) v = rng.uniform(-2.0, 2.0);
  const Cholesky chol(a);
  const Vector x = chol.solve(b);
  expect_vector_near(multiply(a, x), b, 1e-8, "A x == b");
}

// Named for the LU oracle it first used; the independent reference is now
// Σ log λ from the symmetric eigensolver.
TEST_P(CholeskyPropertyTest, LogDetMatchesLu) {
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, 300 + n);
  const Cholesky chol(a);
  double log_det = 0.0;
  for (double lambda : eigen_symmetric(a).eigenvalues) {
    log_det += std::log(lambda);
  }
  EXPECT_NEAR(chol.log_det(), log_det, 1e-8);
}

TEST_P(CholeskyPropertyTest, MahalanobisMatchesExplicitInverse) {
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, 400 + n);
  Rng rng(2 * n);
  Vector x(n);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  const Cholesky chol(a);
  // x^T A^-1 x through the eigendecomposition: Σ_k (v_k · x)² / λ_k.
  const SymmetricEigenResult eig = eigen_symmetric(a);
  double expected = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    double proj = 0.0;
    for (std::size_t i = 0; i < n; ++i) proj += eig.eigenvectors(i, k) * x[i];
    expected += proj * proj / eig.eigenvalues[k];
  }
  EXPECT_NEAR(chol.mahalanobis_squared(x), expected, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyPropertyTest,
                         ::testing::Values(1, 2, 4, 9, 16, 32));

TEST(Cholesky, RejectsIndefinite) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {2.0, 1.0}});  // eig -1, 3
  EXPECT_THROW((void)Cholesky(a), NumericalError);
}

TEST(Cholesky, JitterRescuesSemidefinite) {
  // Rank-1 PSD matrix: plain factorization fails, jitter succeeds.
  Matrix a(3, 3, 0.0);
  syr_update(a, 1.0, Vector{1.0, 1.0, 1.0});
  EXPECT_THROW((void)Cholesky(a), NumericalError);
  EXPECT_NO_THROW(Cholesky(a, 1e-6));
}

TEST(Cholesky, RegularizationEscalatesUntilSuccess) {
  Matrix a(3, 3, 0.0);
  syr_update(a, 1.0, Vector{2.0, -1.0, 0.5});
  const auto reg = cholesky_with_regularization(a);
  EXPECT_GT(reg.jitter_used, 0.0);
  EXPECT_EQ(reg.factor.dim(), 3u);
}

TEST(Cholesky, RegularizationZeroJitterWhenAlreadyPd) {
  const auto reg = cholesky_with_regularization(random_spd(5, 7));
  EXPECT_EQ(reg.jitter_used, 0.0);
}

TEST(Cholesky, RegularizationGivesUpAtMaxJitter) {
  // A matrix with a hugely negative eigenvalue cannot be fixed by jitter
  // bounded at max_jitter.
  Matrix a = Matrix::identity(2);
  a(0, 0) = -1e9;
  EXPECT_THROW(cholesky_with_regularization(a, 0.0, 1.0), NumericalError);
}

TEST(Cholesky, TransformStandardNormalHasTargetCovariance) {
  const Matrix a = Matrix::from_rows({{2.0, 0.6}, {0.6, 1.0}});
  const Cholesky chol(a);
  Rng rng(55);
  Matrix cov(2, 2, 0.0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const Vector z = {rng.normal(), rng.normal()};
    const Vector s = chol.transform_standard_normal(z);
    syr_update(cov, 1.0 / n, s);
  }
  expect_matrix_near(cov, a, 0.05, "empirical covariance");
}

TEST(Cholesky, ForwardSolveIsLowerTriangularSolve) {
  const Matrix a = random_spd(4, 11);
  const Cholesky chol(a);
  Vector b = {1.0, 2.0, 3.0, 4.0};
  const Vector y = chol.forward_solve(b);
  expect_vector_near(multiply(chol.lower(), y), b, 1e-10, "L y == b");
}

}  // namespace
}  // namespace mhm::linalg
