#include "linalg/eigen_sym.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/vector_ops.hpp"
#include "test_util.hpp"

namespace mhm::linalg {
namespace {

using mhm::testing::expect_matrix_near;
using mhm::testing::random_symmetric;
using mhm::testing::random_spd;

TEST(EigenSym, DiagonalMatrix) {
  Matrix m(3, 3, 0.0);
  m(0, 0) = 1.0;
  m(1, 1) = 5.0;
  m(2, 2) = 3.0;
  const auto eig = eigen_symmetric(m);
  ASSERT_EQ(eig.eigenvalues.size(), 3u);
  EXPECT_NEAR(eig.eigenvalues[0], 5.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 3.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[2], 1.0, 1e-12);
}

TEST(EigenSym, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1)/√2, (1,-1)/√2.
  const Matrix m = Matrix::from_rows({{2.0, 1.0}, {1.0, 2.0}});
  const auto eig = eigen_symmetric(m);
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 1.0, 1e-12);
  const double s = 1.0 / std::sqrt(2.0);
  mhm::testing::expect_vector_near_up_to_sign(eig.eigenvectors.col_vector(0),
                                              {s, s}, 1e-12);
  mhm::testing::expect_vector_near_up_to_sign(eig.eigenvectors.col_vector(1),
                                              {s, -s}, 1e-12);
}

TEST(EigenSym, EmptyAndSingleton) {
  const auto empty = eigen_symmetric(Matrix(0, 0));
  EXPECT_TRUE(empty.eigenvalues.empty());

  Matrix one(1, 1);
  one(0, 0) = -7.5;
  const auto eig = eigen_symmetric(one);
  ASSERT_EQ(eig.eigenvalues.size(), 1u);
  EXPECT_DOUBLE_EQ(eig.eigenvalues[0], -7.5);
  EXPECT_NEAR(std::abs(eig.eigenvectors(0, 0)), 1.0, 1e-15);
}

TEST(EigenSym, RejectsNonSquare) {
  EXPECT_THROW(eigen_symmetric(Matrix(2, 3)), LogicError);
}

TEST(EigenSym, RejectsAsymmetric) {
  Matrix m = Matrix::from_rows({{1.0, 2.0}, {0.0, 1.0}});
  EXPECT_THROW(eigen_symmetric(m), LogicError);
}

class EigenSymPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSymPropertyTest, ReconstructsInput) {
  const std::size_t n = GetParam();
  const Matrix m = random_symmetric(n, 1000 + n);
  const auto eig = eigen_symmetric(m);
  expect_matrix_near(reconstruct(eig), m, 1e-9 * static_cast<double>(n),
                     "V diag(w) V^T == A");
}

TEST_P(EigenSymPropertyTest, EigenvectorsAreOrthonormal) {
  const std::size_t n = GetParam();
  const Matrix m = random_symmetric(n, 2000 + n);
  const auto eig = eigen_symmetric(m);
  const Matrix vtv =
      multiply(eig.eigenvectors.transposed(), eig.eigenvectors);
  expect_matrix_near(vtv, Matrix::identity(n), 1e-10, "V^T V == I");
}

TEST_P(EigenSymPropertyTest, EigenvaluesSortedDecreasing) {
  const std::size_t n = GetParam();
  const auto eig = eigen_symmetric(random_symmetric(n, 3000 + n));
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_GE(eig.eigenvalues[i - 1], eig.eigenvalues[i]);
  }
}

TEST_P(EigenSymPropertyTest, SatisfiesEigenEquation) {
  const std::size_t n = GetParam();
  const Matrix m = random_symmetric(n, 4000 + n);
  const auto eig = eigen_symmetric(m);
  for (std::size_t k = 0; k < n; ++k) {
    const Vector v = eig.eigenvectors.col_vector(k);
    const Vector av = multiply(m, v);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], eig.eigenvalues[k] * v[i], 1e-9)
          << "A v = lambda v failed for k=" << k << " i=" << i;
    }
  }
}

TEST_P(EigenSymPropertyTest, TraceEqualsEigenvalueSum) {
  const std::size_t n = GetParam();
  const Matrix m = random_symmetric(n, 5000 + n);
  const auto eig = eigen_symmetric(m);
  double trace = 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    trace += m(i, i);
    sum += eig.eigenvalues[i];
  }
  EXPECT_NEAR(trace, sum, 1e-10 * static_cast<double>(n));
}

TEST_P(EigenSymPropertyTest, QlAgreesWithJacobi) {
  const std::size_t n = GetParam();
  const Matrix m = random_symmetric(n, 6000 + n);
  const auto ql = eigen_symmetric(m);
  const auto jacobi = eigen_symmetric_jacobi(m);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ql.eigenvalues[i], jacobi.eigenvalues[i], 1e-9)
        << "eigenvalue " << i;
  }
  // Eigenvectors may differ in degenerate subspaces; compare the
  // reconstructed matrices instead, which must agree regardless.
  expect_matrix_near(reconstruct(ql), reconstruct(jacobi), 1e-8,
                     "QL vs Jacobi reconstruction");
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSymPropertyTest,
                         ::testing::Values(2, 3, 5, 8, 16, 33, 64));

TEST(EigenSym, SpdMatrixHasPositiveEigenvalues) {
  const Matrix m = random_spd(12, 99);
  const auto eig = eigen_symmetric(m);
  for (double v : eig.eigenvalues) EXPECT_GT(v, 0.0);
}

TEST(EigenSym, RankDeficientMatrixHasZeroEigenvalues) {
  // Rank-1 matrix x x^T: one eigenvalue |x|^2, rest zero.
  Matrix m(4, 4, 0.0);
  const Vector x = {1.0, 2.0, 3.0, 4.0};
  syr_update(m, 1.0, x);
  const auto eig = eigen_symmetric(m);
  EXPECT_NEAR(eig.eigenvalues[0], dot(x, x), 1e-10);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_NEAR(eig.eigenvalues[i], 0.0, 1e-10);
  }
}

TEST(EigenSym, HandlesRepeatedEigenvalues) {
  // 2·I has eigenvalue 2 with multiplicity n.
  const Matrix m = scaled(Matrix::identity(6), 2.0);
  const auto eig = eigen_symmetric(m);
  for (double v : eig.eigenvalues) EXPECT_NEAR(v, 2.0, 1e-12);
  expect_matrix_near(reconstruct(eig), m, 1e-10, "repeated eigenvalues");
}

TEST(EigenSym, LargeMatrixStaysAccurate) {
  const std::size_t n = 200;
  const Matrix m = random_symmetric(n, 12345);
  const auto eig = eigen_symmetric(m);
  const Matrix rec = reconstruct(eig);
  EXPECT_LT(subtract(rec, m).max_abs(), 1e-8);
}

TEST(EigenSym, MostlyColdCovarianceConverges) {
  // Regression: covariance matrices of memory heat maps have most rows
  // identically zero (cold cells). The reduced tridiagonal form then
  // carries denormal entries for which a purely relative negligibility
  // test never fires, hanging the QL iteration. Build such a matrix: a few
  // huge-scale active dimensions among many exact zeros.
  mhm::Rng rng(4242);
  const std::size_t n = 500;
  Matrix cov(n, n, 0.0);
  for (int r = 0; r < 12; ++r) {
    Vector x(n, 0.0);
    // Activity touches only every 17th dimension, with count-like scale.
    for (std::size_t i = r % 17; i < n; i += 17) x[i] = rng.uniform(0.0, 2e4);
    syr_update(cov, 1.0, x);
  }
  const auto eig = eigen_symmetric(cov);
  EXPECT_GT(eig.eigenvalues[0], 0.0);
  // Reconstruction must still hold to (scaled) accuracy.
  const Matrix rec = reconstruct(eig);
  EXPECT_LT(subtract(rec, cov).max_abs(), 1e-6 * cov.max_abs());
}

TEST(EigenSym, FleetSizedColdCovarianceIsPinned) {
  // Pins the Householder reduction and QL iteration bit for bit at the
  // fleet heat-map size (L = 368), on a covariance whose cold cells are
  // exact zero rows and columns as in real heat maps.
  mhm::Rng rng(368);
  const std::size_t n = 368;
  Matrix cov(n, n, 0.0);
  for (int r = 0; r < 40; ++r) {
    Vector x(n, 0.0);
    // A third of the cells stay cold; the rest carry count-like activity.
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 3 != 1) {
        x[i] = rng.uniform(0.0, 500.0) * static_cast<double>(1 + i % 7);
      }
    }
    syr_update(cov, 1.0 / 40.0, x);
  }
  const auto eig = eigen_symmetric(cov);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&](std::span<const double> xs) {
    for (double v : xs) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    }
  };
  fold(eig.eigenvalues);
  fold(eig.eigenvectors.data());
  EXPECT_EQ(eig.eigenvalues[0], 0x1.2602c426959eap+28)
      << std::hexfloat << eig.eigenvalues[0];
  EXPECT_EQ(h, 0x9630ee397e918447ULL) << "eigen digest 0x" << std::hex << h;
}

TEST(EigenSymJacobi, DiagonalAlreadyConverged) {
  Matrix m(2, 2, 0.0);
  m(0, 0) = 4.0;
  m(1, 1) = -2.0;
  const auto eig = eigen_symmetric_jacobi(m);
  EXPECT_NEAR(eig.eigenvalues[0], 4.0, 1e-14);
  EXPECT_NEAR(eig.eigenvalues[1], -2.0, 1e-14);
}

}  // namespace
}  // namespace mhm::linalg
