#pragma once

#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace mhm {

/// ln(10), the divisor converting natural-log densities to the paper's
/// log10 scale. Hoisted into one constant (computed the same way every call
/// site used to: std::log(10.0)) so the serial and batch scoring paths — and
/// training-time calibration — divide by bit-identical values.
inline const double kLn10 = std::log(10.0);

/// One multivariate Gaussian component of the mixture: mean μ_j, covariance
/// Σ_j and mixing weight λ_j (prior probability of the component).
struct GmmComponent {
  std::vector<double> mean;
  linalg::Matrix covariance;
  double weight = 0.0;
};

/// Gaussian Mixture Model over reduced MHMs (paper §4.3).
///
/// Normal memory behaviour is treated as generated from a small set of
/// significant patterns, each a multivariate Gaussian over the eigenmemory
/// weights; anomalies score a low density under the mixture. Fit with the
/// EM algorithm (Dempster–Laird–Rubin), restarted several times with
/// k-means++ initialization and keeping the best log-likelihood, exactly as
/// the paper does (10 restarts, J chosen manually; a BIC-based automatic
/// choice is provided as the `select_components` extension).
class Gmm {
 public:
  /// Empty (untrained) mixture; usable only as an assignment target.
  Gmm() = default;

  struct Options {
    std::size_t components = 5;     ///< J (paper: 5).
    std::size_t restarts = 10;      ///< EM restarts (paper: 10).
    std::size_t max_iterations = 200;
    double tolerance = 1e-7;        ///< Relative log-likelihood improvement.
    double covariance_floor = 1e-9; ///< Diagonal regularization added to Σ.
    std::uint64_t seed = 12345;
  };

  /// Fit on reduced training vectors (all the same dimension). Restarts run
  /// side by side on the global pool; the model is the same at every width.
  /// Throws ConfigError on degenerate input (fewer samples than components).
  static Gmm fit(const std::vector<std::vector<double>>& data,
                 const Options& options);
  static Gmm fit(const std::vector<std::vector<double>>& data) {
    return fit(data, Options{});
  }

  /// Extension: fit for each J in [min_components, max_components] and keep
  /// the model minimizing the Bayesian Information Criterion. Returns the
  /// winning model; `chosen` (if non-null) receives the winning J.
  static Gmm select_components(const std::vector<std::vector<double>>& data,
                               std::size_t min_components,
                               std::size_t max_components,
                               const Options& options,
                               std::size_t* chosen = nullptr);

  /// Reusable workspace for the allocation-free scoring calls. The online
  /// path (`engine::Session::analyze`, every 10 ms interval) keeps one of
  /// these per thread; after the first call the buffers never reallocate.
  struct Scratch {
    std::vector<double> terms;  ///< Per-component log joint density.
    std::vector<double> diff;   ///< x − μ_j.
    std::vector<double> solve;  ///< Cholesky forward-solve output.
  };

  /// Natural-log density log Pr(M; Θ) of one reduced MHM (Eq. 2).
  double log_density(const std::vector<double>& x) const;

  /// Allocation-free variant reusing `scratch`.
  double log_density(std::span<const double> x, Scratch& scratch) const;

  /// log10 of the density — the quantity plotted in Figures 7, 8 and 10.
  double log10_density(const std::vector<double>& x) const;

  /// Per-component posterior responsibilities γ_j(x) (sums to 1).
  std::vector<double> responsibilities(const std::vector<double>& x) const;

  /// Allocation-free responsibilities: fills `gamma` (resized to the
  /// component count) and returns the natural-log density — the E-step and
  /// the online verdict need both from the same pass.
  double responsibilities_into(std::span<const double> x, Scratch& scratch,
                               std::vector<double>& gamma) const;

  /// Column-block workspace for the batch scoring path. Every block stores
  /// the batch dimension contiguously (element [row * batch + b] belongs to
  /// sample b), so the per-row loops vectorize across samples. Buffers reach
  /// a high-water mark on first use, then never reallocate.
  struct BatchScratch {
    std::vector<double> diff;   ///< d × B: x − μ_j for the current component.
    std::vector<double> solve;  ///< d × B: triangular-solve output rows.
    std::vector<double> maha;   ///< B: squared Mahalanobis distances.
  };

  /// Batched responsibilities over `batch` reduced samples laid out as
  /// batch-contiguous columns (`x_soa[i * batch + b]` is coordinate i of
  /// sample b). Fills `terms` (J × B log joint densities), `gamma` (J × B
  /// responsibilities) and `ln_density` (length-B natural-log densities).
  ///
  /// Determinism contract: per sample this performs the exact operation
  /// sequence of responsibilities_into() — same mean-shift order, same
  /// forward-substitution row order, same log-sum-exp fold — only with the
  /// batch as the inner loop over *independent* accumulation chains, so the
  /// results are bit-identical to the serial path at every batch size.
  void responsibilities_batch(std::span<const double> x_soa, std::size_t batch,
                              BatchScratch& scratch,
                              std::vector<double>& terms,
                              std::vector<double>& gamma,
                              std::span<double> ln_density) const;

  /// Index of the most responsible component.
  std::size_t classify(const std::vector<double>& x) const;

  /// Draw one sample from the mixture (tests / synthetic data).
  std::vector<double> sample(Rng& rng) const;

  std::size_t dimension() const { return dim_; }
  std::size_t component_count() const { return components_.size(); }
  const std::vector<GmmComponent>& components() const { return components_; }

  /// Total log-likelihood of a data set under this model.
  double total_log_likelihood(
      const std::vector<std::vector<double>>& data) const;

  /// Single-pass variant: additionally writes each sample's natural-log
  /// density into `per_sample` (resized to data.size()). Callers that need
  /// both the per-sample scores and their sum — threshold calibration, BIC,
  /// the model-health training baseline — score the set once instead of
  /// running a second E-step-equivalent pass.
  double total_log_likelihood(const std::vector<std::vector<double>>& data,
                              std::vector<double>* per_sample) const;

  /// Serial sample-order fold of scores computed elsewhere — bit-identical
  /// to the accumulation the variants above perform, so anything already
  /// holding per-interval log densities (the analyze hot path, a journal
  /// snapshot) sums them without touching the mixture again.
  static double sum_log_likelihood(std::span<const double> per_sample);

  /// Number of free parameters (for BIC): J·(d + d(d+1)/2) + (J−1).
  std::size_t parameter_count() const;

  /// BIC = −2·logL + params·ln(N); lower is better.
  double bic(const std::vector<std::vector<double>>& data) const;

  /// Rebuild from previously extracted components (deserialization).
  /// Validates shapes/weights and recomputes the density caches; throws
  /// ConfigError / NumericalError on inconsistent input.
  static Gmm from_components(std::vector<GmmComponent> components);

 private:
  /// Per-component cached Cholesky factor and log normalizers, precomputed
  /// at assemble time so scoring never re-derives them.
  struct ComponentCache {
    linalg::Cholesky chol;
    double log_norm = 0.0;  ///< -d/2·ln(2π) - 1/2·ln|Σ|.
    /// log(max(λ_j, 1e-300)) + log_norm, the maha-independent part of the
    /// log joint term. Folding it here is bit-identical to the old per-call
    /// sum because the serial expression was left-associated the same way.
    double log_joint_const = 0.0;
  };

  void rebuild_cache();

  /// Fill scratch.terms with log(λ_j) + log N(x; μ_j, Σ_j) for every j.
  void log_joint_terms(std::span<const double> x, Scratch& scratch) const;

  std::size_t dim_ = 0;
  std::vector<GmmComponent> components_;
  std::vector<ComponentCache> cache_;
};

/// k-means++ initial means over `data`; exposed for tests and reuse.
std::vector<std::vector<double>> kmeans_plus_plus_init(
    const std::vector<std::vector<double>>& data, std::size_t k, Rng& rng);

}  // namespace mhm
