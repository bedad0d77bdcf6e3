#include "linalg/eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace mhm::linalg {

namespace {

/// sqrt(a^2 + b^2) without destructive underflow/overflow.
double hypot_stable(double a, double b) { return std::hypot(a, b); }

/// Reduce symmetric `a` (overwritten) to tridiagonal form.
/// On output: `diag` holds the diagonal, `off` holds the subdiagonal
/// (off[0] unused), and `a` accumulates the orthogonal transform Q such
/// that Q^T A Q = T.
///
/// Standard Householder reduction: for each column k (from the last down),
/// build the reflector that annihilates a[k][0..k-2], apply it two-sided,
/// and accumulate the product of reflectors into `a`.
void householder_tridiagonalize(Matrix& a, Vector& diag, Vector& off) {
  const std::size_t n = a.rows();
  diag.assign(n, 0.0);
  off.assign(n, 0.0);
  if (n == 0) return;

  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;  // length of the row segment minus one
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::abs(a(i, k));
      if (scale == 0.0) {
        // Segment already zero; skip the transform.
        off[i] = a(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        off[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;
        // p = A u / h, with A's lower triangle read row by row: row r adds
        // its k <= r terms to p_r, then its term for every p_j with j < r
        // (the term k = r of p_j's sum down column j). Each p_j thus sums
        // its terms in ascending k, as a column-order sweep would.
        const double* u = &a(i, 0);
        for (std::size_t r = 0; r <= l; ++r) {
          const double* row = &a(r, 0);
          g = 0.0;
          for (std::size_t k = 0; k <= r; ++k) g += row[k] * u[k];
          off[r] = g;
          const double ur = u[r];
          for (std::size_t j = 0; j < r; ++j) off[j] += row[j] * ur;
        }
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          a(j, i) = a(i, j) / h;  // store u/h for eigenvector accumulation
          off[j] /= h;
          f += off[j] * a(i, j);
        }
        const double hh = f / (h + h);
        // A := A - u p^T - p u^T (two-sided reflector application)
        for (std::size_t j = 0; j <= l; ++j) {
          f = a(i, j);
          g = off[j] - hh * f;
          off[j] = g;
          for (std::size_t k = 0; k <= j; ++k) {
            a(j, k) -= f * off[k] + g * a(i, k);
          }
        }
        diag[i] = h;
        continue;
      }
    } else {
      off[i] = a(i, l);
    }
    diag[i] = 0.0;
  }

  diag[0] = 0.0;
  off[0] = 0.0;
  // Accumulate transformation matrix in `a`.
  Vector work(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t l = i;  // columns [0, l) already transformed
    if (diag[i] != 0.0) {
      // g_j = Σ_k a(i,k)·a(k,j) for every column j first, summed in
      // ascending k one row at a time, then the rank-1 update row by row.
      // Updating column j leaves every other g unchanged, so this matches
      // the column-by-column order bit for bit.
      std::fill_n(work.begin(), l, 0.0);
      for (std::size_t k = 0; k < l; ++k) {
        const double aik = a(i, k);
        const double* row = &a(k, 0);
        for (std::size_t j = 0; j < l; ++j) work[j] += aik * row[j];
      }
      for (std::size_t k = 0; k < l; ++k) {
        const double aki = a(k, i);
        double* row = &a(k, 0);
        for (std::size_t j = 0; j < l; ++j) row[j] -= work[j] * aki;
      }
    }
    diag[i] = a(i, i);
    a(i, i) = 1.0;
    for (std::size_t j = 0; j < l; ++j) {
      a(j, i) = 0.0;
      a(i, j) = 0.0;
    }
  }
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix.
/// `diag`/`off` as produced by householder_tridiagonalize (off[0] unused);
/// `z` accumulates eigenvectors (columns). Throws NumericalError if any
/// eigenvalue fails to converge within `max_iter` sweeps.
void tridiagonal_ql(Vector& diag, Vector& off, Matrix& z, int max_iter = 50) {
  const std::size_t n = diag.size();
  if (n == 0) return;
  // Shift the subdiagonal for convenient indexing: off[i] pairs (i, i+1).
  for (std::size_t i = 1; i < n; ++i) off[i - 1] = off[i];
  off[n - 1] = 0.0;

  // Absolute negligibility floor. Covariance matrices of heat maps have
  // many identically-cold cells: the reduced tridiagonal form then carries
  // denormal entries (~1e-320) for which the relative test
  // |off| <= eps*(|d_m|+|d_m+1|) underflows to `|off| <= 0` and can never
  // be met. Couplings this far below the matrix scale are exact zeros for
  // every practical purpose.
  const double eps = std::numeric_limits<double>::epsilon();
  double anorm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    anorm = std::max(anorm, std::abs(diag[i]) + std::abs(off[i]));
  }
  const double abs_floor = eps * eps * std::max(anorm, 1.0);

  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m;
    do {
      // Find a negligible subdiagonal element to split the matrix.
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(diag[m]) + std::abs(diag[m + 1]);
        if (std::abs(off[m]) <= eps * dd + abs_floor) {
          break;
        }
      }
      if (m != l) {
        if (++iter > max_iter) {
          throw mhm::NumericalError(
              "tridiagonal_ql: eigenvalue failed to converge");
        }
        // Form the implicit Wilkinson shift.
        double g = (diag[l + 1] - diag[l]) / (2.0 * off[l]);
        double r = hypot_stable(g, 1.0);
        g = diag[m] - diag[l] + off[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow = false;
        for (std::size_t i = m; i-- > l;) {
          double f = s * off[i];
          const double b = c * off[i];
          r = hypot_stable(f, g);
          off[i + 1] = r;
          if (r == 0.0) {
            // Recover from underflow: deflate and restart this eigenvalue.
            diag[i + 1] -= p;
            off[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = diag[i + 1] - p;
          r = (diag[i] - g) * s + 2.0 * c * b;
          p = s * r;
          diag[i + 1] = g + p;
          g = c * r - b;
          // Accumulate the rotation into the eigenvector matrix.
          for (std::size_t k = 0; k < n; ++k) {
            f = z(k, i + 1);
            z(k, i + 1) = s * z(k, i) + c * f;
            z(k, i) = c * z(k, i) - s * f;
          }
        }
        if (underflow) continue;
        diag[l] -= p;
        off[l] = g;
        off[m] = 0.0;
      }
    } while (m != l);
  }
}

void sort_decreasing(SymmetricEigenResult& res) {
  const std::size_t n = res.eigenvalues.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return res.eigenvalues[a] > res.eigenvalues[b];
  });
  Vector sorted_vals(n);
  Matrix sorted_vecs(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    sorted_vals[k] = res.eigenvalues[order[k]];
    for (std::size_t r = 0; r < n; ++r) {
      sorted_vecs(r, k) = res.eigenvectors(r, order[k]);
    }
  }
  res.eigenvalues = std::move(sorted_vals);
  res.eigenvectors = std::move(sorted_vecs);
}

/// Fix eigenvector sign convention: largest-magnitude component positive.
/// Makes decompositions deterministic across solver paths.
void canonicalize_signs(Matrix& vecs) {
  for (std::size_t c = 0; c < vecs.cols(); ++c) {
    double best = 0.0;
    for (std::size_t r = 0; r < vecs.rows(); ++r) {
      if (std::abs(vecs(r, c)) > std::abs(best)) best = vecs(r, c);
    }
    if (best < 0.0) {
      for (std::size_t r = 0; r < vecs.rows(); ++r) vecs(r, c) = -vecs(r, c);
    }
  }
}

void check_square_symmetric(const Matrix& a, double tol) {
  MHM_ASSERT(a.rows() == a.cols(), "eigen_symmetric: matrix must be square");
  const double scale = std::max(1.0, a.max_abs());
  if (a.rows() > 0 && max_asymmetry(a) > tol * scale) {
    throw mhm::LogicError("eigen_symmetric: matrix is not symmetric");
  }
}

}  // namespace

SymmetricEigenResult eigen_symmetric(const Matrix& a, double symmetry_tol) {
  check_square_symmetric(a, symmetry_tol);
  const std::size_t n = a.rows();
  SymmetricEigenResult res;
  if (n == 0) return res;

  Matrix work = a;
  // Symmetrize exactly to remove round-off asymmetry before reduction.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (work(i, j) + work(j, i));
      work(i, j) = avg;
      work(j, i) = avg;
    }
  }

  Vector diag;
  Vector off;
  householder_tridiagonalize(work, diag, off);
  tridiagonal_ql(diag, off, work);

  res.eigenvalues = std::move(diag);
  res.eigenvectors = std::move(work);
  sort_decreasing(res);
  canonicalize_signs(res.eigenvectors);
  return res;
}

SymmetricEigenResult eigen_symmetric_jacobi(const Matrix& a, int max_sweeps,
                                            double tol) {
  check_square_symmetric(a, 1e-8);
  const std::size_t n = a.rows();
  SymmetricEigenResult res;
  if (n == 0) return res;

  Matrix m = a;
  Matrix v = Matrix::identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    // Off-diagonal Frobenius norm for the convergence test.
    double off_norm = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) off_norm += 2.0 * m(p, q) * m(p, q);
    }
    if (std::sqrt(off_norm) <= tol * std::max(1.0, m.max_abs())) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (std::abs(apq) < 1e-300) continue;
        const double app = m(p, p);
        const double aqq = m(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(1.0, theta) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply the rotation G(p, q, theta) on both sides.
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p);
          const double mkq = m(k, q);
          m(k, p) = c * mkp - s * mkq;
          m(k, q) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k);
          const double mqk = m(q, k);
          m(p, k) = c * mpk - s * mqk;
          m(q, k) = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  res.eigenvalues.resize(n);
  for (std::size_t i = 0; i < n; ++i) res.eigenvalues[i] = m(i, i);
  res.eigenvectors = std::move(v);
  sort_decreasing(res);
  canonicalize_signs(res.eigenvectors);
  return res;
}

Matrix reconstruct(const SymmetricEigenResult& eig) {
  const std::size_t n = eig.eigenvalues.size();
  Matrix out(n, n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    const Vector col = eig.eigenvectors.col_vector(k);
    syr_update(out, eig.eigenvalues[k], col);
  }
  return out;
}

}  // namespace mhm::linalg
