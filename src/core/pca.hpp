#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/heatmap.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"

namespace mhm {

/// The "eigenmemory" dimensionality-reduction stage (paper §4.2).
///
/// Given a training set of MHMs, computes the empirical mean Ψ, the
/// covariance C = (1/N) Σ Φ_n Φ_n^T of the mean-shifted maps Φ_n = M_n − Ψ,
/// and its leading eigenvectors u_1..u_L' ("eigenmemories", the analogue of
/// eigenfaces). A map is reduced by projecting its mean-shifted form onto
/// the eigenmemory basis: M'_n = u^T Φ_n, an L'-vector of weights that
/// measures how strongly each primary activity contributes to the map.
class Eigenmemory {
 public:
  /// Empty (untrained) basis; usable only as an assignment target.
  Eigenmemory() = default;

  struct Options {
    /// Number of eigenmemories L' to keep. 0 = choose automatically so that
    /// `variance_target` of the training variance is retained.
    std::size_t components = 0;
    double variance_target = 0.9999;  ///< Used when components == 0.
    /// When N < L the covariance has rank < L; the solver always runs on
    /// the smaller Gram matrix in that case (Turk–Pentland trick).
    bool allow_gram_trick = true;
  };

  /// Fit on raw MHM cell-count vectors (each of equal length L).
  /// Throws ConfigError on an empty/ragged training set.
  static Eigenmemory fit(const std::vector<std::vector<double>>& training,
                         const Options& options);
  static Eigenmemory fit(const std::vector<std::vector<double>>& training) {
    return fit(training, Options{});
  }

  /// Convenience: fit directly on heat maps.
  static Eigenmemory fit(const HeatMapTrace& maps, const Options& options);
  static Eigenmemory fit(const HeatMapTrace& maps) {
    return fit(maps, Options{});
  }

  struct TopkOptions {
    /// Number of eigenmemories to keep. Must be > 0 and ≤ min(N, L) —
    /// unlike fit(), the truncated path has no variance-target mode.
    std::size_t components = 0;
    /// Extra subspace columns carried through the randomized iteration
    /// (Halko et al. oversampling); the final basis drops them.
    std::size_t oversample = 8;
    /// Subspace (power) iterations: each multiplies the spectral gap's
    /// effect by λ_{k+1}/λ_k, so a handful suffice for heat-map spectra.
    std::size_t power_iterations = 6;
    /// Largest min(N, L) for which fit_topk runs an exact eigensolve (fit():
    /// the N×N Gram form when N < L, the L×L covariance otherwise) instead
    /// of the randomized path. The cube of this bound is the cost ceiling
    /// accepted for exactness.
    std::size_t gram_limit = 1024;
    /// Seed for the Gaussian test matrix Ω. Fixed default keeps retrains
    /// reproducible; results are deterministic at any MHM_THREADS either way.
    std::uint64_t seed = 20150607;
  };

  /// Truncated top-k fit: the PCA that AnomalyDetector::train, the one
  /// trainer, runs for every model with a fixed L' — offline models and
  /// retrain candidates alike. Picks between two routes — the exact fit() when
  /// min(N, L) ≤ gram_limit (an eigensolve of that size is cheap), and
  /// randomized subspace iteration with oversampling
  /// (Halko–Martinsson–Tropp) on the N×L data matrix otherwise, which never
  /// forms the L×L covariance or runs the full eigensolve. The randomized
  /// basis spans the same top-k eigenspace as fit() up to round-off /
  /// iteration tolerance (the cross-check tests pin principal angles
  /// against the exact solver); its spectrum() holds only the
  /// k + oversample Ritz values, and variance_explained() is anchored on
  /// the exact covariance trace. Deterministic at any MHM_THREADS.
  /// Throws ConfigError when components is 0 or exceeds min(N, L).
  static Eigenmemory fit_topk(const std::vector<std::vector<double>>& training,
                              const TopkOptions& options);
  static Eigenmemory fit_topk(const HeatMapTrace& maps,
                              const TopkOptions& options);

  /// Project one raw MHM into the reduced space (length L' weights).
  std::vector<double> project(const std::vector<double>& map) const;
  std::vector<double> project(const HeatMap& map) const;

  /// The serial projection kernel of the online scoring path: one sweep
  /// over the map that converts each cell to double, subtracts the mean,
  /// advances all L' weight chains side by side (at most 12 per sweep;
  /// larger L' splits into balanced sweeps) and folds ‖Φ‖² in as one more
  /// chain. Each chain is a single i-ascending accumulator — the linalg::dot
  /// order — so the weights and ‖Φ‖² are bit-identical to a mean shift
  /// followed by one dot per component. Writes the L' weights into
  /// `weights` (length L') and returns ‖Φ‖². Allocation-free.
  double project_pass(std::span<const double> map,
                      std::span<double> weights) const;
  /// Count input (a HeatMap's cells): the same pass, which also leaves the
  /// map as doubles in `raw` (length L).
  double project_pass(std::span<const std::uint32_t> counts,
                      std::span<double> raw, std::span<double> weights) const;

  /// project_pass() into a vector: `weights` is resized on first use, then
  /// stable. `phi_scratch` is not touched; it stays for existing callers.
  void project_into(std::span<const double> map,
                    std::vector<double>& phi_scratch,
                    std::vector<double>& weights) const;

  /// Batch tile width of project_batch: lanes per register tile. Fixed so
  /// the Φ block layout below is a compile-time contract.
  static constexpr std::size_t kBatchTile = 16;

  /// Batched, cache-blocked projection of B maps at once — the GEMM-shaped
  /// core of score_snapshot_batch(). `phi_tiles` receives the mean-shifted
  /// maps as tile-blocked columns: element
  /// `[(b / kBatchTile) * L * kBatchTile + i * kBatchTile + b % kBatchTile]`
  /// is cell i of map b, so each 16-lane tile is one contiguous L × 16 slab
  /// the inner kernel streams front-to-back. `weights_soa` gets the
  /// projections as an L' × B column block (element [k * B + b] belongs to
  /// map b); `phi_sq`, when non-null, receives each map's ‖Φ‖² (the SPE
  /// identity needs it, and folding it into the mean-shift pass saves a
  /// re-read of Φ).
  ///
  /// Determinism contract: every per-map accumulation (mean shift in cell
  /// order, each weight as an i-ascending single-accumulator dot — the
  /// linalg::dot order, ‖Φ‖² in cell order) is the exact serial sequence of
  /// project_pass(); only *independent* chains run side by side in a
  /// register tile (including the runtime-dispatched AVX2 tile kernel,
  /// whose vector lanes are element-wise and never fused — the build pins
  /// -ffp-contract=off), so the weights are bit-identical to the serial
  /// path on every ISA.
  void project_batch(std::span<const std::span<const double>> maps,
                     std::vector<double>& phi_tiles,
                     std::vector<double>& weights_soa,
                     std::vector<double>* phi_sq = nullptr) const;

  /// Project a batch.
  std::vector<std::vector<double>> project_all(
      const std::vector<std::vector<double>>& maps) const;

  /// Approximate reconstruction Ψ + Σ_k w_k u_k from reduced weights.
  std::vector<double> reconstruct(const std::vector<double>& weights) const;

  /// Relative reconstruction error |M − reconstruct(project(M))| / |M − Ψ|
  /// (0 when the map lies fully inside the retained subspace).
  double reconstruction_error(const std::vector<double>& map) const;

  std::size_t input_dim() const { return mean_.size(); }
  std::size_t components() const { return basis_.rows(); }
  const std::vector<double>& mean() const { return mean_; }
  /// Basis row k is the k-th eigenmemory (unit length, decreasing
  /// eigenvalue order).
  const linalg::Matrix& basis() const { return basis_; }
  const std::vector<double>& eigenvalues() const { return eigenvalues_; }
  /// Covariance eigenvalues in decreasing order, retained ones first: all
  /// of them after fit(), the k + oversample Ritz values after a randomized
  /// fit_topk().
  const std::vector<double>& spectrum() const { return spectrum_; }
  /// Total training variance, trace(C): the denominator of
  /// variance_explained(). Equals the spectrum sum only when the spectrum
  /// is complete.
  double total_variance() const { return total_variance_; }

  /// Fraction of total training variance captured by the first k retained
  /// eigenmemories (k defaults to all retained).
  double variance_explained(std::size_t k = 0) const;

  /// Rebuild from previously extracted parts (deserialization). `basis`
  /// must be L' x L with unit-norm rows; `eigenvalues` length L';
  /// `spectrum` the (possibly longer) eigenvalue list; `total_variance`
  /// the trace, finite and ≥ 0 — when absent it is taken as the spectrum
  /// sum. Validated.
  static Eigenmemory from_parts(
      std::vector<double> mean, linalg::Matrix basis,
      std::vector<double> eigenvalues, std::vector<double> spectrum,
      std::optional<double> total_variance = std::nullopt);

 private:
  std::vector<double> mean_;       ///< Ψ, length L.
  linalg::Matrix basis_;           ///< L' x L; rows are eigenmemories.
  std::vector<double> eigenvalues_;///< Retained eigenvalues, length L'.
  std::vector<double> spectrum_;   ///< Full eigenvalue spectrum.
  double total_variance_ = 0.0;
};

}  // namespace mhm
