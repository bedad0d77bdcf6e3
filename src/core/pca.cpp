#include "core/pca.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"

namespace mhm {

using linalg::Matrix;
using linalg::Vector;

namespace {

std::vector<double> compute_mean(const std::vector<std::vector<double>>& xs) {
  std::vector<double> mean(xs.front().size(), 0.0);
  for (const auto& x : xs) {
    MHM_ASSERT(x.size() == mean.size(), "Eigenmemory: ragged training set");
    for (std::size_t i = 0; i < mean.size(); ++i) mean[i] += x[i];
  }
  for (double& m : mean) m /= static_cast<double>(xs.size());
  return mean;
}

/// Mean-shifted copies Φ_n = x_n − Ψ of the whole training set.
std::vector<std::vector<double>> mean_shifted(
    const std::vector<std::vector<double>>& xs,
    const std::vector<double>& mean) {
  const std::size_t l = mean.size();
  std::vector<std::vector<double>> phis(xs.size());
  parallel_for(xs.size(), 0, [&](std::size_t a0, std::size_t a1) {
    for (std::size_t a = a0; a < a1; ++a) {
      phis[a].resize(l);
      for (std::size_t i = 0; i < l; ++i) phis[a][i] = xs[a][i] - mean[i];
    }
  });
  return phis;
}

/// Upper-triangle accumulation of C = (1/N) Σ Φ Φ^T, mirrored at the end.
/// Parallel over row blocks: each row's partial sums accumulate over the
/// samples in index order, so every element sees the exact addition sequence
/// of the serial sample-major loop — the result is bit-identical for any
/// thread count.
Matrix covariance_direct(const std::vector<std::vector<double>>& xs,
                         const std::vector<double>& mean) {
  const std::size_t l = mean.size();
  const auto phis = mean_shifted(xs, mean);
  Matrix c(l, l, 0.0);
  parallel_for(l, 0, [&](std::size_t i0, std::size_t i1) {
    for (const auto& phi : phis) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double pi = phi[i];
        if (pi == 0.0) continue;
        auto row = c.row(i);
        for (std::size_t j = i; j < l; ++j) row[j] += pi * phi[j];
      }
    }
  });
  const double inv_n = 1.0 / static_cast<double>(xs.size());
  parallel_for(l, 0, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      c(i, i) *= inv_n;
      for (std::size_t j = i + 1; j < l; ++j) {
        c(i, j) *= inv_n;
        c(j, i) = c(i, j);
      }
    }
  });
  return c;
}

/// Gram matrix G = (1/N) A^T A with A = [Φ_1 … Φ_N] (N x N). Each (a, b)
/// entry is one independent dot product; row blocks are parallel and the
/// mirror write targets a distinct element, so no two threads touch the
/// same location.
Matrix gram_matrix(const std::vector<std::vector<double>>& xs,
                   const std::vector<double>& mean) {
  const std::size_t n = xs.size();
  const auto phis = mean_shifted(xs, mean);
  Matrix g(n, n, 0.0);
  const double inv_n = 1.0 / static_cast<double>(n);
  parallel_for(n, 0, [&](std::size_t a0, std::size_t a1) {
    for (std::size_t a = a0; a < a1; ++a) {
      for (std::size_t b = a; b < n; ++b) {
        const double v = linalg::dot(phis[a], phis[b]) * inv_n;
        g(a, b) = v;
        g(b, a) = v;
      }
    }
  });
  return g;
}

}  // namespace

Eigenmemory Eigenmemory::fit(const std::vector<std::vector<double>>& training,
                             const Options& options) {
  OBS_SCOPE(kPcaFit);
  if (training.empty()) {
    throw ConfigError("Eigenmemory::fit: empty training set");
  }
  const std::size_t l = training.front().size();
  if (l == 0) throw ConfigError("Eigenmemory::fit: zero-dimensional maps");
  const std::size_t n = training.size();
  if (options.components > std::min(l, n)) {
    throw ConfigError(
        "Eigenmemory::fit: requested more components than min(L, N)");
  }

  Eigenmemory em;
  em.mean_ = compute_mean(training);

  const bool use_gram = options.allow_gram_trick && n < l;
  Matrix moment;
  {
    OBS_SCOPE(kTrainCovariance);
    moment = use_gram ? gram_matrix(training, em.mean_)
                      : covariance_direct(training, em.mean_);
  }
  linalg::SymmetricEigenResult eig;
  {
    OBS_SCOPE(kTrainEigensolve);
    eig = linalg::eigen_symmetric(moment);
  }

  // Clamp tiny negative round-off eigenvalues to zero; record the spectrum.
  em.spectrum_ = eig.eigenvalues;
  for (double& v : em.spectrum_) v = std::max(v, 0.0);
  em.total_variance_ = 0.0;
  for (double v : em.spectrum_) em.total_variance_ += v;

  // Decide how many eigenmemories to retain.
  std::size_t keep = options.components;
  if (keep == 0) {
    if (options.variance_target <= 0.0 || options.variance_target > 1.0) {
      throw ConfigError("Eigenmemory::fit: variance_target must be in (0,1]");
    }
    double cumulative = 0.0;
    keep = em.spectrum_.size();
    for (std::size_t k = 0; k < em.spectrum_.size(); ++k) {
      cumulative += em.spectrum_[k];
      if (em.total_variance_ == 0.0 ||
          cumulative >= options.variance_target * em.total_variance_) {
        keep = k + 1;
        break;
      }
    }
  }
  // Never keep numerically-zero directions.
  const double floor = 1e-12 * std::max(1.0, em.total_variance_);
  while (keep > 1 && em.spectrum_[keep - 1] <= floor) --keep;

  em.eigenvalues_.assign(em.spectrum_.begin(),
                         em.spectrum_.begin() + static_cast<std::ptrdiff_t>(keep));
  em.basis_ = Matrix(keep, l, 0.0);

  if (use_gram) {
    // Map Gram eigenvectors v back to input space: u = A v (then normalize).
    // Basis rows are independent of each other — parallel over k.
    parallel_for(keep, 1, [&](std::size_t k0, std::size_t k1) {
      for (std::size_t k = k0; k < k1; ++k) {
        auto urow = em.basis_.row(k);
        for (std::size_t a = 0; a < n; ++a) {
          const double vak = eig.eigenvectors(a, k);
          if (vak == 0.0) continue;
          for (std::size_t i = 0; i < l; ++i) {
            urow[i] += vak * (training[a][i] - em.mean_[i]);
          }
        }
        linalg::normalize(urow);
      }
    });
  } else {
    for (std::size_t k = 0; k < keep; ++k) {
      auto urow = em.basis_.row(k);
      for (std::size_t i = 0; i < l; ++i) urow[i] = eig.eigenvectors(i, k);
    }
  }
  obs::Registry::instance()
      .gauge("core.pca.components_retained",
             "eigenmemories kept by the most recent fit")
      .set(static_cast<double>(keep));
  obs::Registry::instance()
      .gauge("core.pca.variance_explained",
             "variance fraction captured by the retained eigenmemories")
      .set(em.variance_explained());
  return em;
}

Eigenmemory Eigenmemory::fit(const HeatMapTrace& maps,
                             const Options& options) {
  std::vector<std::vector<double>> raw;
  raw.reserve(maps.size());
  for (const auto& m : maps) raw.push_back(m.as_vector());
  return fit(raw, options);
}

namespace {

// Range-finder products on row-major slabs: Q and Y are L × m (q[i * m + j]),
// Z is N × m (z[a * m + j] = Φ_a · q_j). Both products run as register
// tiles of kTile rows × up to kTile columns: kTile² independent
// accumulators advance together over the reduction index, so each output
// element is still one serial chain in the order of a per-element loop —
// i-ascending for Z (the linalg::dot order), sample-ascending for Y (the
// covariance_direct order). Only independent chains run side by side and
// the build pins -ffp-contract=off, so results are bit-identical to
// per-element loops on every ISA and at any thread count
// (EigenmemoryTopk.RandomizedRouteIsPinnedBitForBit). Ragged rows (fewer
// than kTile samples or cells) take the per-element loop itself.
constexpr std::size_t kTile = 4;

/// Calls tile(j0, integral_constant<C>) for each column tile of an m-wide
/// slab: C = kTile, then one narrower tile for the remainder.
template <typename Fn>
void for_each_column_tile(std::size_t m, Fn&& tile) {
  for (std::size_t j0 = 0; j0 < m; j0 += kTile) {
    switch (m - j0) {
      case 1: tile(j0, std::integral_constant<std::size_t, 1>{}); break;
      case 2: tile(j0, std::integral_constant<std::size_t, 2>{}); break;
      case 3: tile(j0, std::integral_constant<std::size_t, 3>{}); break;
      default: tile(j0, std::integral_constant<std::size_t, kTile>{}); break;
    }
  }
}

/// z[r][j0 + c] = Σ_i phi_r[i] · q[i][j0 + c] for kTile samples × C columns.
template <std::size_t C>
void z_tile(const double* const* phi, const double* q, std::size_t l,
            std::size_t m, std::size_t j0, double* const* z) {
  double acc[kTile][C] = {};
  for (std::size_t i = 0; i < l; ++i) {
    const double* qrow = q + i * m + j0;
    for (std::size_t r = 0; r < kTile; ++r) {
      const double p = phi[r][i];
      for (std::size_t c = 0; c < C; ++c) acc[r][c] += p * qrow[c];
    }
  }
  for (std::size_t r = 0; r < kTile; ++r) {
    for (std::size_t c = 0; c < C; ++c) z[r][j0 + c] = acc[r][c];
  }
}

/// Two consecutive cells of one sample row (GCC/Clang vector extension at
/// the baseline SIMD width; element-wise ops only, so each lane stays its
/// own cell's chain).
typedef double CellPair __attribute__((vector_size(2 * sizeof(double))));
constexpr std::size_t kPairs = kTile / 2;

/// y[i0 + r][j0 + c] += Σ_a z[a][j0 + c] · Φ_a[i0 + r] over one run of
/// `rows` samples, for kTile cells × C columns. `phi` points at cell i0 of
/// the run's first sample in a panel of row stride `stride`; `z` at the
/// run's first Z row. The partial sums resume from y, so consecutive runs
/// keep each chain's sample order. Lanes run over the cells, whose Φ
/// values are contiguous in each panel row.
template <std::size_t C>
void y_tile(const double* phi, std::size_t stride, const double* z,
            std::size_t m, std::size_t rows, std::size_t i0, std::size_t j0,
            double* y) {
  CellPair acc[C][kPairs];
  for (std::size_t c = 0; c < C; ++c) {
    for (std::size_t h = 0; h < kPairs; ++h) {
      const double* yc = y + (i0 + 2 * h) * m + j0 + c;
      acc[c][h] = CellPair{yc[0], yc[m]};
    }
  }
  for (std::size_t a = 0; a < rows; ++a) {
    CellPair p[kPairs];
    std::memcpy(p, phi + a * stride, sizeof p);
    const double* zrow = z + a * m + j0;
    for (std::size_t c = 0; c < C; ++c) {
      const double zc = zrow[c];
      for (std::size_t h = 0; h < kPairs; ++h) acc[c][h] += zc * p[h];
    }
  }
  for (std::size_t c = 0; c < C; ++c) {
    for (std::size_t r = 0; r < kTile; ++r) {
      y[(i0 + r) * m + j0 + c] = acc[c][r / 2][r % 2];
    }
  }
}

/// Z = A Q. Sample tiles are independent — parallel over them.
void data_times_basis(const std::vector<std::vector<double>>& phis,
                      const std::vector<double>& q, std::size_t m,
                      std::vector<double>& z) {
  const std::size_t n = phis.size();
  const std::size_t l = q.size() / m;
  z.resize(n * m);
  const std::size_t tiles = (n + kTile - 1) / kTile;
  parallel_for(tiles, 0, [&](std::size_t t0, std::size_t t1) {
    for (std::size_t a0 = t0 * kTile; a0 < std::min(n, t1 * kTile);
         a0 += kTile) {
      if (a0 + kTile > n) {
        for (std::size_t a = a0; a < n; ++a) {
          for (std::size_t j = 0; j < m; ++j) {
            double acc = 0.0;
            for (std::size_t i = 0; i < l; ++i) {
              acc += phis[a][i] * q[i * m + j];
            }
            z[a * m + j] = acc;
          }
        }
        continue;
      }
      const double* phi[kTile];
      double* out[kTile];
      for (std::size_t r = 0; r < kTile; ++r) {
        phi[r] = phis[a0 + r].data();
        out[r] = z.data() + (a0 + r) * m;
      }
      for_each_column_tile(m, [&](std::size_t j0, auto cols) {
        z_tile<decltype(cols)::value>(phi, q.data(), l, m, j0, out);
      });
    }
  });
}

/// Y = Aᵀ Z / N = C Q without forming C. Cell chunks are independent —
/// parallel over them. Each chunk takes the samples in runs of kSampleRun:
/// it first copies the run's slice of its cells into a contiguous panel
/// (sequential row reads), then sweeps every cell tile over the panel, which
/// stays cache-resident — tiles reading one cell group straight from each
/// of N scattered rows would stall on every row. Products with z == 0 are
/// added like any other: an accumulator that starts at +0 can never become
/// −0, so adding a ±0 product leaves it bit-unchanged.
void covariance_apply(const std::vector<std::vector<double>>& phis,
                      const std::vector<double>& z, std::size_t m,
                      std::vector<double>& y) {
  constexpr std::size_t kSampleRun = 256;
  const std::size_t n = phis.size();
  const std::size_t l = y.size() / m;
  const double inv_n = 1.0 / static_cast<double>(n);
  std::fill(y.begin(), y.end(), 0.0);
  const std::size_t tiles = (l + kTile - 1) / kTile;
  parallel_for(tiles, 0, [&](std::size_t t0, std::size_t t1) {
    const std::size_t c0 = t0 * kTile;
    const std::size_t c1 = std::min(l, t1 * kTile);
    const std::size_t w = c1 - c0;
    std::vector<double> panel(std::min(n, kSampleRun) * w);
    for (std::size_t a0 = 0; a0 < n; a0 += kSampleRun) {
      const std::size_t rows = std::min(n - a0, kSampleRun);
      for (std::size_t a = 0; a < rows; ++a) {
        std::copy(phis[a0 + a].begin() + static_cast<std::ptrdiff_t>(c0),
                  phis[a0 + a].begin() + static_cast<std::ptrdiff_t>(c1),
                  panel.begin() + static_cast<std::ptrdiff_t>(a * w));
      }
      const double* zrun = z.data() + a0 * m;
      std::size_t i0 = c0;
      for (; i0 + kTile <= c1; i0 += kTile) {
        for_each_column_tile(m, [&](std::size_t j0, auto cols) {
          y_tile<decltype(cols)::value>(panel.data() + (i0 - c0), w, zrun, m,
                                        rows, i0, j0, y.data());
        });
      }
      for (std::size_t i = i0; i < c1; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          double acc = y[i * m + j];
          for (std::size_t a = 0; a < rows; ++a) {
            acc += zrun[a * m + j] * panel[a * w + (i - c0)];
          }
          y[i * m + j] = acc;
        }
      }
    }
    for (std::size_t e = c0 * m; e < c1 * m; ++e) y[e] *= inv_n;
  });
}

/// In-place modified Gram–Schmidt over the m columns of the L × m slab.
/// Serial by design: the column count is k + oversample (tiny), and a fixed
/// sweep order keeps the orthonormalization deterministic. Every dot and
/// update runs i-ascending, as on contiguous columns. A column that
/// collapses to numerical zero (rank-deficient data) is re-seeded with a
/// canonical basis vector so the sweep always yields a full orthonormal set.
void orthonormalize_columns(std::vector<double>& q, std::size_t m) {
  const std::size_t l = q.size() / m;
  const auto col_dot = [&](std::size_t p, std::size_t j) {
    double s = 0.0;
    for (std::size_t i = 0; i < l; ++i) s += q[i * m + p] * q[i * m + j];
    return s;
  };
  const auto subtract_projections = [&](std::size_t j) {
    for (std::size_t p = 0; p < j; ++p) {
      const double r = col_dot(p, j);
      for (std::size_t i = 0; i < l; ++i) q[i * m + j] -= r * q[i * m + p];
    }
  };
  for (std::size_t j = 0; j < m; ++j) {
    subtract_projections(j);
    double nrm = std::sqrt(col_dot(j, j));
    if (!(nrm > 1e-12)) {
      // Deterministic re-seed: e_{j mod L}, re-orthogonalized.
      for (std::size_t i = 0; i < l; ++i) q[i * m + j] = 0.0;
      q[(j % l) * m + j] = 1.0;
      subtract_projections(j);
      nrm = std::sqrt(col_dot(j, j));
    }
    const double inv = 1.0 / nrm;
    for (std::size_t i = 0; i < l; ++i) q[i * m + j] *= inv;
  }
}

}  // namespace

Eigenmemory Eigenmemory::fit_topk(
    const std::vector<std::vector<double>>& training,
    const TopkOptions& options) {
  OBS_SCOPE(kPcaFitTopk);
  if (training.empty()) {
    throw ConfigError("Eigenmemory::fit_topk: empty training set");
  }
  const std::size_t l = training.front().size();
  if (l == 0) throw ConfigError("Eigenmemory::fit_topk: zero-dimensional maps");
  const std::size_t n = training.size();
  const std::size_t rank_cap = std::min(l, n);
  if (options.components == 0) {
    throw ConfigError("Eigenmemory::fit_topk: components must be > 0");
  }
  if (options.components > rank_cap) {
    throw ConfigError(
        "Eigenmemory::fit_topk: requested more components than min(L, N)");
  }
  const std::size_t keep = options.components;
  const std::size_t m = std::min(keep + options.oversample, rank_cap);

  // Exact route: when min(N, L) ≤ gram_limit the full eigensolve is cheap —
  // reuse fit() (the N×N Gram form when N < L, the L×L covariance
  // otherwise), which also yields the complete spectrum. The same fallback
  // covers the degenerate case where the oversampled subspace would span
  // the whole rank anyway — the randomized route would do strictly more
  // work than the exact one.
  if (rank_cap <= options.gram_limit || m >= rank_cap) {
    Options exact;
    exact.components = keep;
    return fit(training, exact);
  }

  Eigenmemory em;
  em.mean_ = compute_mean(training);
  const auto phis = mean_shifted(training, em.mean_);

  // trace(C) = (1/N) Σ ‖Φ_a‖² — the total variance, exact, without C.
  double trace = 0.0;
  for (const auto& phi : phis) trace += linalg::dot(phi, phi);
  trace /= static_cast<double>(n);

  // Randomized range finder with subspace (power) iteration:
  //   Q ← orth(C Ω);  repeat q times: Q ← orth(C Q)
  // where every C·X product is computed as A^T(A X)/N on the data matrix.
  // Ω is filled serially from a fixed-seed generator, and every parallel
  // product above is element-independent, so the whole pipeline is
  // bit-deterministic at any MHM_THREADS.
  std::vector<double> q(l * m);
  std::vector<double> z;
  {
    OBS_SCOPE(kTrainCovariance);
    Rng rng(options.seed);
    // Ω is drawn row by row into its L × m slab.
    std::vector<double> omega(l * m);
    for (double& v : omega) v = rng.normal();
    data_times_basis(phis, omega, m, z);
    covariance_apply(phis, z, m, q);
    orthonormalize_columns(q, m);
    for (std::size_t it = 0; it < options.power_iterations; ++it) {
      data_times_basis(phis, q, m, z);
      covariance_apply(phis, z, m, q);
      orthonormalize_columns(q, m);
    }
  }

  // Rayleigh–Ritz: B = Q^T C Q = (A Q)^T (A Q) / N, then the small m×m
  // eigensolve recovers the eigenpairs inside the captured subspace.
  linalg::SymmetricEigenResult eig;
  {
    OBS_SCOPE(kTrainEigensolve);
    data_times_basis(phis, q, m, z);
    Matrix b(m, m, 0.0);
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = i; j < m; ++j) {
        double acc = 0.0;
        for (std::size_t a = 0; a < n; ++a) acc += z[a * m + i] * z[a * m + j];
        acc *= inv_n;
        b(i, j) = acc;
        b(j, i) = acc;
      }
    }
    eig = linalg::eigen_symmetric(b);
  }

  // The m Ritz values are the best available spectrum estimate; the trace
  // (exact) anchors variance_explained. spectrum_ keeps all m so that
  // from_parts-style invariants (spectrum ≥ retained) hold downstream.
  em.spectrum_ = eig.eigenvalues;
  for (double& v : em.spectrum_) v = std::max(v, 0.0);
  em.total_variance_ = trace;

  em.eigenvalues_.assign(
      em.spectrum_.begin(),
      em.spectrum_.begin() + static_cast<std::ptrdiff_t>(keep));
  em.basis_ = Matrix(keep, l, 0.0);
  // U = Q V: rotate the orthonormal range onto the Ritz vectors. Rows are
  // independent — parallel over k; each element is a fixed j-ascending sum.
  parallel_for(keep, 1, [&](std::size_t k0, std::size_t k1) {
    for (std::size_t k = k0; k < k1; ++k) {
      auto urow = em.basis_.row(k);
      for (std::size_t j = 0; j < m; ++j) {
        const double vjk = eig.eigenvectors(j, k);
        if (vjk == 0.0) continue;
        for (std::size_t i = 0; i < l; ++i) urow[i] += vjk * q[i * m + j];
      }
      linalg::normalize(urow);
    }
  });
  obs::Registry::instance()
      .gauge("core.pca.components_retained",
             "eigenmemories kept by the most recent fit")
      .set(static_cast<double>(keep));
  obs::Registry::instance()
      .gauge("core.pca.variance_explained",
             "variance fraction captured by the retained eigenmemories")
      .set(em.variance_explained());
  return em;
}

Eigenmemory Eigenmemory::fit_topk(const HeatMapTrace& maps,
                                  const TopkOptions& options) {
  std::vector<std::vector<double>> raw;
  raw.reserve(maps.size());
  for (const auto& m : maps) raw.push_back(m.as_vector());
  return fit_topk(raw, options);
}

namespace {

/// Most component chains one serial pass keeps in flight: 12 accumulators
/// plus ‖Φ‖², the cell and a product fit the 16 SSE registers of baseline
/// x86-64 without spilling.
constexpr std::size_t kMaxChains = 12;

/// One sweep over the map advancing R component chains side by side. Per
/// cell: convert to double (leaving the double in `raw` for count input),
/// subtract the mean, add the cell's term to every chain and to ‖Φ‖². R is a
/// compile-time constant so the accumulators unroll into registers; each is
/// a single i-ascending chain, the linalg::dot order. Writes weight r to
/// w[r * stride] and returns ‖Φ‖².
template <int R, typename T>
double chains_pass(const double* const* brows, const T* x, const double* mean,
                   std::size_t l, double* raw, double* w, std::size_t stride) {
  const double* b[R];
  for (int r = 0; r < R; ++r) b[r] = brows[r];
  double acc[R] = {};
  double sq = 0.0;
  for (std::size_t i = 0; i < l; ++i) {
    const double v = static_cast<double>(x[i]);
    if constexpr (!std::is_same_v<T, double>) raw[i] = v;
    const double phi = v - mean[i];
    sq += phi * phi;
#pragma GCC unroll 12
    for (int r = 0; r < R; ++r) acc[r] += b[r][i] * phi;
  }
  for (int r = 0; r < R; ++r) w[static_cast<std::size_t>(r) * stride] = acc[r];
  return sq;
}

template <typename T>
double chains_dispatch(std::size_t rows, const double* const* brows,
                       const T* x, const double* mean, std::size_t l,
                       double* raw, double* w, std::size_t stride) {
  switch (rows) {
    case 12: return chains_pass<12>(brows, x, mean, l, raw, w, stride);
    case 11: return chains_pass<11>(brows, x, mean, l, raw, w, stride);
    case 10: return chains_pass<10>(brows, x, mean, l, raw, w, stride);
    case 9: return chains_pass<9>(brows, x, mean, l, raw, w, stride);
    case 8: return chains_pass<8>(brows, x, mean, l, raw, w, stride);
    case 7: return chains_pass<7>(brows, x, mean, l, raw, w, stride);
    case 6: return chains_pass<6>(brows, x, mean, l, raw, w, stride);
    case 5: return chains_pass<5>(brows, x, mean, l, raw, w, stride);
    case 4: return chains_pass<4>(brows, x, mean, l, raw, w, stride);
    case 3: return chains_pass<3>(brows, x, mean, l, raw, w, stride);
    case 2: return chains_pass<2>(brows, x, mean, l, raw, w, stride);
    default: return chains_pass<1>(brows, x, mean, l, raw, w, stride);
  }
}

/// The serial projection kernel: all L' chains in ⌈L'/12⌉ balanced passes
/// (13 → 7 + 6, 25 → 9 + 8 + 8). ‖Φ‖² comes from the first pass; count input
/// is converted into `raw` by the first pass and read back from there by
/// the later ones.
template <typename T>
double project_one(const Matrix& basis, const std::vector<double>& mean,
                   const T* x, double* raw, double* w, std::size_t stride) {
  const std::size_t k_count = basis.rows();
  const std::size_t l = mean.size();
  const std::size_t passes = (k_count + kMaxChains - 1) / kMaxChains;
  const double* again;  // What the passes after the first read.
  if constexpr (std::is_same_v<T, double>) {
    again = x;
  } else {
    again = raw;
  }
  double phi_sq = 0.0;
  std::size_t k = 0;
  for (std::size_t p = 0; p < passes; ++p) {
    const std::size_t left = passes - p;
    const std::size_t rows = (k_count - k + left - 1) / left;
    const double* brows[kMaxChains];
    for (std::size_t r = 0; r < rows; ++r) brows[r] = basis.row(k + r).data();
    double* wk = w + k * stride;
    if (p == 0) {
      phi_sq = chains_dispatch(rows, brows, x, mean.data(), l, raw, wk, stride);
    } else {
      chains_dispatch(rows, brows, again, mean.data(), l, nullptr, wk, stride);
    }
    k += rows;
  }
  return phi_sq;
}

}  // namespace

double Eigenmemory::project_pass(std::span<const double> map,
                                 std::span<double> weights) const {
  MHM_ASSERT(map.size() == mean_.size() && weights.size() == components(),
             "Eigenmemory::project: bad length");
  return project_one(basis_, mean_, map.data(), nullptr, weights.data(), 1);
}

double Eigenmemory::project_pass(std::span<const std::uint32_t> counts,
                                 std::span<double> raw,
                                 std::span<double> weights) const {
  MHM_ASSERT(counts.size() == mean_.size() && raw.size() == counts.size() &&
                 weights.size() == components(),
             "Eigenmemory::project: bad length");
  return project_one(basis_, mean_, counts.data(), raw.data(), weights.data(),
                     1);
}

void Eigenmemory::project_into(std::span<const double> map,
                               std::vector<double>& /*phi_scratch*/,
                               std::vector<double>& weights) const {
  weights.resize(components());
  project_pass(map, weights);
}

namespace {

/// Batch tile width of project_batch (mirrors Eigenmemory::kBatchTile; a
/// local name keeps the kernels below self-contained).
constexpr std::size_t kProjTile = Eigenmemory::kBatchTile;

/// Full-width tile pass, generic ISA: two basis rows swept together over a
/// *contiguous* Φ tile (tile[i * 16 + t] = cell i of lane t — 128-byte rows
/// read front-to-back, so the tile streams through the prefetcher once per
/// row pair). Each lane is an independent i-ascending accumulator chain —
/// the linalg::dot order; pairing two rows halves the tile re-reads and
/// doubles the number of independent chains in flight, which is what turns
/// the latency-bound serial matvec into a throughput-bound block product.
void tile_pass2_generic(const double* brow0, const double* brow1,
                        std::size_t l, const double* tile, double* w0,
                        double* w1) {
  double a0[kProjTile] = {0.0};
  double a1[kProjTile] = {0.0};
  for (std::size_t i = 0; i < l; ++i) {
    const double c0 = brow0[i];
    const double c1 = brow1[i];
    const double* ph = tile + i * kProjTile;
    for (std::size_t t = 0; t < kProjTile; ++t) a0[t] += c0 * ph[t];
    for (std::size_t t = 0; t < kProjTile; ++t) a1[t] += c1 * ph[t];
  }
  for (std::size_t t = 0; t < kProjTile; ++t) w0[t] = a0[t];
  for (std::size_t t = 0; t < kProjTile; ++t) w1[t] = a1[t];
}

void tile_pass1_generic(const double* brow0, std::size_t l,
                        const double* tile, double* w0) {
  double a0[kProjTile] = {0.0};
  for (std::size_t i = 0; i < l; ++i) {
    const double c0 = brow0[i];
    const double* ph = tile + i * kProjTile;
    for (std::size_t t = 0; t < kProjTile; ++t) a0[t] += c0 * ph[t];
  }
  for (std::size_t t = 0; t < kProjTile; ++t) w0[t] = a0[t];
}

// AVX2 / AVX-512 tile kernels, dispatched at runtime so the portable
// baseline binary still runs everywhere. GCC's autovectorizer keeps the 16
// lane accumulators in memory for the generic loops above (and its
// outer-loop vectorization strategy is a shuffle storm), so the hot passes
// are written with explicit vector-extension accumulators: one broadcast
// per basis row per cell, 4 ymm (or 2 zmm) registers of lane accumulators
// per row. Element-wise vector ops preserve each lane's serial chain
// exactly, and the build compiles with -ffp-contract=off, so no mul+add is
// ever fused — results are bit-identical to the generic pass and to serial
// project_pass() on every ISA.
#if defined(__x86_64__) && defined(__GNUC__)
#define MHM_PCA_AVX2_TILE 1

typedef double V4df __attribute__((vector_size(32)));
// Unaligned view type: tile rows are only guaranteed 8-byte aligned.
typedef double V4dfU __attribute__((vector_size(32), aligned(8)));

// The load/store helpers carry their ISA like the kernels that inline
// them, so passing or returning a 32- or 64-byte vector never happens in a
// function compiled for the baseline ABI.
__attribute__((target("avx2"), always_inline)) inline V4df v4load(
    const double* p) {
  return *reinterpret_cast<const V4dfU*>(p);
}
__attribute__((target("avx2"), always_inline)) inline void v4store(double* p,
                                                                   V4df v) {
  *reinterpret_cast<V4dfU*>(p) = v;
}

typedef double V8df __attribute__((vector_size(64)));
typedef double V8dfU __attribute__((vector_size(64), aligned(8)));

__attribute__((target("avx512f"), always_inline)) inline V8df v8load(
    const double* p) {
  return *reinterpret_cast<const V8dfU*>(p);
}
__attribute__((target("avx512f"), always_inline)) inline void v8store(
    double* p, V8df v) {
  *reinterpret_cast<V8dfU*>(p) = v;
}

__attribute__((target("avx2"))) void tile_pass2_avx2(
    const double* brow0, const double* brow1, std::size_t l,
    const double* tile, double* w0, double* w1) {
  V4df a00{}, a01{}, a02{}, a03{};
  V4df a10{}, a11{}, a12{}, a13{};
  for (std::size_t i = 0; i < l; ++i) {
    const double* ph = tile + i * kProjTile;
    const V4df p0 = v4load(ph);
    const V4df p1 = v4load(ph + 4);
    const V4df p2 = v4load(ph + 8);
    const V4df p3 = v4load(ph + 12);
    const V4df c0 = {brow0[i], brow0[i], brow0[i], brow0[i]};
    const V4df c1 = {brow1[i], brow1[i], brow1[i], brow1[i]};
    a00 += c0 * p0;
    a01 += c0 * p1;
    a02 += c0 * p2;
    a03 += c0 * p3;
    a10 += c1 * p0;
    a11 += c1 * p1;
    a12 += c1 * p2;
    a13 += c1 * p3;
  }
  v4store(w0, a00);
  v4store(w0 + 4, a01);
  v4store(w0 + 8, a02);
  v4store(w0 + 12, a03);
  v4store(w1, a10);
  v4store(w1 + 4, a11);
  v4store(w1 + 8, a12);
  v4store(w1 + 12, a13);
}

__attribute__((target("avx2"))) void tile_pass1_avx2(const double* brow0,
                                                     std::size_t l,
                                                     const double* tile,
                                                     double* w0) {
  V4df a00{}, a01{}, a02{}, a03{};
  for (std::size_t i = 0; i < l; ++i) {
    const double* ph = tile + i * kProjTile;
    const V4df c0 = {brow0[i], brow0[i], brow0[i], brow0[i]};
    a00 += c0 * v4load(ph);
    a01 += c0 * v4load(ph + 4);
    a02 += c0 * v4load(ph + 8);
    a03 += c0 * v4load(ph + 12);
  }
  v4store(w0, a00);
  v4store(w0 + 4, a01);
  v4store(w0 + 8, a02);
  v4store(w0 + 12, a03);
}

// AVX-512 variant: a 16-lane tile row is exactly two zmm registers, and 32
// architectural zmm registers fit up to 8 basis rows of accumulators in one
// pass — the 47 KB tile is streamed once per 8 rows instead of once per
// row pair, which matters because the pass is cache-bandwidth-shaped, not
// FLOP-shaped. R is a compile-time constant so the accumulator arrays fully
// unroll into registers. Same element-wise lane structure, same bit-exact
// chains.
template <int R>
__attribute__((target("avx512f"))) void tile_passR_avx512(
    const double* const* brows, std::size_t l, const double* tile,
    double* const* ws) {
  const double* b[R];
  for (int r = 0; r < R; ++r) b[r] = brows[r];
  V8df a0[R] = {};
  V8df a1[R] = {};
  for (std::size_t i = 0; i < l; ++i) {
    const double* ph = tile + i * kProjTile;
    const V8df p0 = v8load(ph);
    const V8df p1 = v8load(ph + 8);
    for (int r = 0; r < R; ++r) {
      const double br = b[r][i];
      const V8df c = {br, br, br, br, br, br, br, br};
      a0[r] += c * p0;
      a1[r] += c * p1;
    }
  }
  for (int r = 0; r < R; ++r) {
    v8store(ws[r], a0[r]);
    v8store(ws[r] + 8, a1[r]);
  }
}

// Tile fill, AVX2: mean-shift 4 lanes × 4 cells at a time through a 4×4
// register transpose (maps are row-contiguous, the tile is lane-
// interleaved). The mean shift is element-wise (no chain to preserve), and
// each lane's ‖Φ‖² accumulator takes its c·c adds in strictly ascending
// cell order — the exact serial sequence.
/// One 4-lane × 4-cell transpose block: mean-shift, scatter into the tile,
/// and fold the four cells into the group's ‖Φ‖² accumulator in ascending
/// cell order. always_inline so the caller keeps all four group chains in
/// registers at once.
__attribute__((target("avx2"), always_inline)) inline void fill_block4(
    const double* const* rp, V4df m, std::size_t i, double* out, V4df& sqv) {
  const V4df r0 = v4load(rp[0] + i) - m;
  const V4df r1 = v4load(rp[1] + i) - m;
  const V4df r2 = v4load(rp[2] + i) - m;
  const V4df r3 = v4load(rp[3] + i) - m;
  const V4df t0 = __builtin_shufflevector(r0, r1, 0, 4, 2, 6);
  const V4df t1 = __builtin_shufflevector(r0, r1, 1, 5, 3, 7);
  const V4df t2 = __builtin_shufflevector(r2, r3, 0, 4, 2, 6);
  const V4df t3 = __builtin_shufflevector(r2, r3, 1, 5, 3, 7);
  const V4df c0 = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
  const V4df c1 = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
  const V4df c2 = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
  const V4df c3 = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
  v4store(out, c0);
  v4store(out + kProjTile, c1);
  v4store(out + 2 * kProjTile, c2);
  v4store(out + 3 * kProjTile, c3);
  sqv += c0 * c0;
  sqv += c1 * c1;
  sqv += c2 * c2;
  sqv += c3 * c3;
}

__attribute__((target("avx2"))) void fill_tile_avx2(
    const double* const* rowp, const double* mean, std::size_t l,
    double* tile, double* sq) {
  const std::size_t l4 = l & ~std::size_t{3};
  // All four lane groups advance through one i-loop so their ‖Φ‖² chains
  // (one serial add per cell per group — the order contract) interleave
  // and hide each other's add latency.
  V4df sq0{}, sq1{}, sq2{}, sq3{};
  for (std::size_t i = 0; i < l4; i += 4) {
    const V4df m = v4load(mean + i);
    double* out = tile + i * kProjTile;
    fill_block4(rowp, m, i, out, sq0);
    fill_block4(rowp + 4, m, i, out + 4, sq1);
    fill_block4(rowp + 8, m, i, out + 8, sq2);
    fill_block4(rowp + 12, m, i, out + 12, sq3);
  }
  v4store(sq, sq0);
  v4store(sq + 4, sq1);
  v4store(sq + 8, sq2);
  v4store(sq + 12, sq3);
  for (std::size_t i = l4; i < l; ++i) {
    const double m = mean[i];
    for (std::size_t t = 0; t < kProjTile; ++t) {
      const double v = rowp[t][i] - m;
      tile[i * kProjTile + t] = v;
      sq[t] += v * v;
    }
  }
}

enum class TileIsa { generic, avx2, avx512 };

TileIsa tile_isa() {
  static const TileIsa isa =
      __builtin_cpu_supports("avx512f") != 0
          ? TileIsa::avx512
          : (__builtin_cpu_supports("avx2") != 0 ? TileIsa::avx2
                                                 : TileIsa::generic);
  return isa;
}

#endif  // x86-64 GCC/clang

/// Sweep all L' basis rows over one full 16-lane tile, writing the weights
/// into the k-major column block at lanes [b0, b0 + 16).
void project_full_tile(const Matrix& basis, std::size_t k_count,
                       const double* tile, double* weights_soa,
                       std::size_t batch, std::size_t b0) {
  const std::size_t l = basis.cols();
  double wtmp0[kProjTile];
  double wtmp1[kProjTile];
  std::size_t k = 0;
#ifdef MHM_PCA_AVX2_TILE
  if (tile_isa() == TileIsa::avx512) {
    // Up to 8 basis rows per tile read; the dispatch switch keeps the row
    // count a compile-time constant so the accumulators live in registers.
    double wbuf[8][kProjTile];
    while (k < k_count) {
      const std::size_t rows = std::min<std::size_t>(k_count - k, 8);
      const double* brows[8];
      double* ws[8];
      for (std::size_t r = 0; r < rows; ++r) {
        brows[r] = basis.row(k + r).data();
        ws[r] = wbuf[r];
      }
      switch (rows) {
        case 8: tile_passR_avx512<8>(brows, l, tile, ws); break;
        case 7: tile_passR_avx512<7>(brows, l, tile, ws); break;
        case 6: tile_passR_avx512<6>(brows, l, tile, ws); break;
        case 5: tile_passR_avx512<5>(brows, l, tile, ws); break;
        case 4: tile_passR_avx512<4>(brows, l, tile, ws); break;
        case 3: tile_passR_avx512<3>(brows, l, tile, ws); break;
        case 2: tile_passR_avx512<2>(brows, l, tile, ws); break;
        default: tile_passR_avx512<1>(brows, l, tile, ws); break;
      }
      for (std::size_t r = 0; r < rows; ++r) {
        double* w = weights_soa + (k + r) * batch + b0;
        for (std::size_t t = 0; t < kProjTile; ++t) w[t] = wbuf[r][t];
      }
      k += rows;
    }
    return;
  }
#endif
  for (; k + 1 < k_count; k += 2) {
#ifdef MHM_PCA_AVX2_TILE
    if (tile_isa() == TileIsa::avx2) {
      tile_pass2_avx2(basis.row(k).data(), basis.row(k + 1).data(), l, tile,
                      wtmp0, wtmp1);
    } else
#endif
    {
      tile_pass2_generic(basis.row(k).data(), basis.row(k + 1).data(), l,
                         tile, wtmp0, wtmp1);
    }
    double* w0 = weights_soa + k * batch + b0;
    double* w1 = weights_soa + (k + 1) * batch + b0;
    for (std::size_t t = 0; t < kProjTile; ++t) w0[t] = wtmp0[t];
    for (std::size_t t = 0; t < kProjTile; ++t) w1[t] = wtmp1[t];
  }
  for (; k < k_count; ++k) {
#ifdef MHM_PCA_AVX2_TILE
    if (tile_isa() == TileIsa::avx2) {
      tile_pass1_avx2(basis.row(k).data(), l, tile, wtmp0);
    } else
#endif
    {
      tile_pass1_generic(basis.row(k).data(), l, tile, wtmp0);
    }
    double* w0 = weights_soa + k * batch + b0;
    for (std::size_t t = 0; t < kProjTile; ++t) w0[t] = wtmp0[t];
  }
}

}  // namespace

void Eigenmemory::project_batch(std::span<const std::span<const double>> maps,
                                std::vector<double>& phi_tiles,
                                std::vector<double>& weights_soa,
                                std::vector<double>* phi_sq) const {
  const std::size_t batch = maps.size();
  const std::size_t l = mean_.size();
  const std::size_t k_count = components();
  const std::size_t tiles = (batch + kProjTile - 1) / kProjTile;
  phi_tiles.resize(tiles * l * kProjTile);
  weights_soa.resize(k_count * batch);
  if (phi_sq != nullptr) phi_sq->resize(batch);

  for (std::size_t b0 = 0; b0 < batch; b0 += kProjTile) {
    const std::size_t width = std::min(kProjTile, batch - b0);
    double* tile = phi_tiles.data() + (b0 / kProjTile) * l * kProjTile;
    // Mean-shift fill, cell-major: row i of the tile is `width` consecutive
    // doubles, so every write is a short contiguous run at any batch size
    // (a lane-major Φ block at large B would stride the cache by batch·8
    // bytes and thrash one L1 set). Each lane's Φ values and its ‖Φ‖² chain
    // accumulate in ascending cell order — the project_pass() /
    // score_snapshot() sequence.
    const double* rowp[kProjTile];
    for (std::size_t t = 0; t < width; ++t) {
      MHM_ASSERT(maps[b0 + t].size() == l,
                 "Eigenmemory::project_batch: bad length");
      rowp[t] = maps[b0 + t].data();
    }
    double sq[kProjTile] = {0.0};
#ifdef MHM_PCA_AVX2_TILE
    if (width == kProjTile && tile_isa() != TileIsa::generic) {
      fill_tile_avx2(rowp, mean_.data(), l, tile, sq);
    } else
#endif
    {
      for (std::size_t i = 0; i < l; ++i) {
        const double m = mean_[i];
        double* trow = tile + i * kProjTile;
        for (std::size_t t = 0; t < width; ++t) {
          const double v = rowp[t][i] - m;
          trow[t] = v;
          sq[t] += v * v;
        }
      }
    }
    if (phi_sq != nullptr) {
      for (std::size_t t = 0; t < width; ++t) (*phi_sq)[b0 + t] = sq[t];
    }
    if (width == kProjTile) {
      project_full_tile(basis_, k_count, tile, weights_soa.data(), batch, b0);
    } else {
      // Ragged tail: the serial kernel per lane over its raw row, all L'
      // chains in flight, weights straight into the lane's column.
      for (std::size_t t = 0; t < width; ++t) {
        project_one(basis_, mean_, rowp[t], nullptr,
                    weights_soa.data() + b0 + t, batch);
      }
    }
  }
}

std::vector<double> Eigenmemory::project(const std::vector<double>& map) const {
  std::vector<double> w(components());
  project_pass(map, w);
  return w;
}

std::vector<double> Eigenmemory::project(const HeatMap& map) const {
  std::vector<double> raw(map.cell_count());
  std::vector<double> w(components());
  project_pass(map.counts(), raw, w);
  return w;
}

std::vector<std::vector<double>> Eigenmemory::project_all(
    const std::vector<std::vector<double>>& maps) const {
  OBS_SCOPE(kPcaProjectAll);
  std::vector<std::vector<double>> out(maps.size());
  parallel_for(maps.size(), 0, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      out[i].resize(components());
      project_pass(maps[i], out[i]);
    }
  });
  return out;
}

std::vector<double> Eigenmemory::reconstruct(
    const std::vector<double>& weights) const {
  MHM_ASSERT(weights.size() == components(),
             "Eigenmemory::reconstruct: weight count mismatch");
  std::vector<double> out = mean_;
  for (std::size_t k = 0; k < components(); ++k) {
    linalg::axpy(weights[k], basis_.row(k), out);
  }
  return out;
}

double Eigenmemory::reconstruction_error(const std::vector<double>& map) const {
  const auto approx = reconstruct(project(map));
  double err = 0.0;
  double ref = 0.0;
  for (std::size_t i = 0; i < map.size(); ++i) {
    const double d = map[i] - approx[i];
    const double r = map[i] - mean_[i];
    err += d * d;
    ref += r * r;
  }
  if (ref == 0.0) return 0.0;
  return std::sqrt(err / ref);
}

Eigenmemory Eigenmemory::from_parts(std::vector<double> mean,
                                    linalg::Matrix basis,
                                    std::vector<double> eigenvalues,
                                    std::vector<double> spectrum,
                                    std::optional<double> total_variance) {
  if (mean.empty()) throw ConfigError("Eigenmemory::from_parts: empty mean");
  if (basis.cols() != mean.size()) {
    throw ConfigError("Eigenmemory::from_parts: basis width != mean length");
  }
  if (basis.rows() == 0 || basis.rows() != eigenvalues.size()) {
    throw ConfigError(
        "Eigenmemory::from_parts: eigenvalue count != basis rows");
  }
  if (spectrum.size() < eigenvalues.size()) {
    throw ConfigError("Eigenmemory::from_parts: spectrum shorter than basis");
  }
  for (std::size_t k = 0; k < basis.rows(); ++k) {
    const double n = linalg::norm2(basis.row(k));
    if (std::abs(n - 1.0) > 1e-6) {
      throw ConfigError("Eigenmemory::from_parts: basis row " +
                        std::to_string(k) + " is not unit-norm");
    }
    if (eigenvalues[k] < 0.0) {
      throw ConfigError("Eigenmemory::from_parts: negative eigenvalue");
    }
  }
  if (total_variance && !(std::isfinite(*total_variance) &&
                         *total_variance >= 0.0)) {
    throw ConfigError("Eigenmemory::from_parts: invalid total variance");
  }
  double spectrum_sum = 0.0;
  for (double v : spectrum) spectrum_sum += v;
  Eigenmemory em;
  em.mean_ = std::move(mean);
  em.basis_ = std::move(basis);
  em.eigenvalues_ = std::move(eigenvalues);
  em.spectrum_ = std::move(spectrum);
  em.total_variance_ = total_variance.value_or(spectrum_sum);
  return em;
}

double Eigenmemory::variance_explained(std::size_t k) const {
  if (total_variance_ == 0.0) return 1.0;
  if (k == 0 || k > eigenvalues_.size()) k = eigenvalues_.size();
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += eigenvalues_[i];
  return sum / total_variance_;
}

}  // namespace mhm
