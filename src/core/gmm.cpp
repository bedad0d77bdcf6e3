#include "core/gmm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"

namespace mhm {

using linalg::Matrix;

namespace {

constexpr double kLog2Pi = 1.8378770664093453;  // ln(2π)

/// Samples per E-step block of Gmm::fit (the responsibilities_batch width).
constexpr std::size_t kEmBlock = 256;

double log_sum_exp(const std::vector<double>& xs) {
  double peak = -std::numeric_limits<double>::infinity();
  for (double x : xs) peak = std::max(peak, x);
  if (!std::isfinite(peak)) return peak;
  double sum = 0.0;
  for (double x : xs) sum += std::exp(x - peak);
  return peak + std::log(sum);
}

}  // namespace

std::vector<std::vector<double>> kmeans_plus_plus_init(
    const std::vector<std::vector<double>>& data, std::size_t k, Rng& rng) {
  MHM_ASSERT(!data.empty() && k > 0 && k <= data.size(),
             "kmeans_plus_plus_init: need at least k samples");
  std::vector<std::vector<double>> centers;
  centers.reserve(k);
  centers.push_back(
      data[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(data.size()) - 1))]);

  // Running min squared distance to the chosen centers, refreshed against
  // only the newest center: O(k·n) distance evaluations instead of the
  // naive O(k²·n) full rescan. min() over the same distance set, so d2 —
  // and therefore the sampled centers — are unchanged.
  std::vector<double> d2(data.size(),
                         std::numeric_limits<double>::infinity());
  const auto fold_in = [&](const std::vector<double>& center) {
    parallel_for(data.size(), 0, [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        d2[i] = std::min(d2[i], linalg::squared_distance(data[i], center));
      }
    });
  };
  fold_in(centers.back());
  while (centers.size() < k) {
    double total = 0.0;
    for (double d : d2) total += d;
    if (total <= 0.0) {
      // All points coincide with existing centers; duplicate one (the
      // duplicate adds no new distance information, so d2 stays valid).
      centers.push_back(centers.back());
      continue;
    }
    centers.push_back(data[rng.discrete(d2)]);
    fold_in(centers.back());
  }
  return centers;
}

void Gmm::rebuild_cache() {
  cache_.clear();
  cache_.reserve(components_.size());
  for (const auto& comp : components_) {
    auto reg = linalg::cholesky_with_regularization(comp.covariance);
    const double log_det = reg.factor.log_det();
    const double log_norm =
        -0.5 * static_cast<double>(dim_) * kLog2Pi - 0.5 * log_det;
    const double log_joint_const =
        std::log(std::max(comp.weight, 1e-300)) + log_norm;
    cache_.push_back(
        ComponentCache{std::move(reg.factor), log_norm, log_joint_const});
  }
}

void Gmm::log_joint_terms(std::span<const double> x, Scratch& s) const {
  s.terms.resize(components_.size());
  s.diff.resize(dim_);
  for (std::size_t j = 0; j < components_.size(); ++j) {
    const auto& comp = components_[j];
    for (std::size_t i = 0; i < dim_; ++i) s.diff[i] = x[i] - comp.mean[i];
    const double maha = cache_[j].chol.mahalanobis_squared(s.diff, s.solve);
    s.terms[j] = cache_[j].log_joint_const - 0.5 * maha;
  }
}

double Gmm::log_density(std::span<const double> x, Scratch& scratch) const {
  MHM_ASSERT(x.size() == dim_, "Gmm::log_density: dimension mismatch");
  log_joint_terms(x, scratch);
  return log_sum_exp(scratch.terms);
}

double Gmm::log_density(const std::vector<double>& x) const {
  thread_local Scratch scratch;
  return log_density(x, scratch);
}

double Gmm::log10_density(const std::vector<double>& x) const {
  return log_density(x) / kLn10;
}

double Gmm::responsibilities_into(std::span<const double> x, Scratch& scratch,
                                  std::vector<double>& gamma) const {
  MHM_ASSERT(x.size() == dim_, "Gmm::responsibilities: dimension mismatch");
  log_joint_terms(x, scratch);
  const double lse = log_sum_exp(scratch.terms);
  gamma.resize(components_.size());
  for (std::size_t j = 0; j < gamma.size(); ++j) {
    gamma[j] = std::exp(scratch.terms[j] - lse);
  }
  return lse;
}

void Gmm::responsibilities_batch(std::span<const double> x_soa,
                                 std::size_t batch, BatchScratch& s,
                                 std::vector<double>& terms,
                                 std::vector<double>& gamma,
                                 std::span<double> ln_density) const {
  MHM_ASSERT(x_soa.size() == dim_ * batch,
             "Gmm::responsibilities_batch: SoA block size mismatch");
  MHM_ASSERT(ln_density.size() == batch,
             "Gmm::responsibilities_batch: output length mismatch");
  const std::size_t j_count = components_.size();
  terms.resize(j_count * batch);
  gamma.resize(j_count * batch);
  s.diff.resize(dim_ * batch);
  s.solve.resize(dim_ * batch);
  s.maha.resize(batch);

  for (std::size_t j = 0; j < j_count; ++j) {
    const auto& comp = components_[j];
    const linalg::Matrix& lmat = cache_[j].chol.lower();
    // Mean shift, all columns of the block at once.
    for (std::size_t i = 0; i < dim_; ++i) {
      const double m = comp.mean[i];
      const double* x = x_soa.data() + i * batch;
      double* d = s.diff.data() + i * batch;
      for (std::size_t b = 0; b < batch; ++b) d[b] = x[b] - m;
    }
    // Forward substitution L·y = diff over the whole block: row i of every
    // column is y_i = (diff_i − Σ_{k<i} L_ik·y_k) / L_ii with the k-ascending
    // subtraction order and trailing division of forward_solve_into(). Each
    // column is an independent chain, so vectorizing across b reorders no
    // single sample's arithmetic.
    for (std::size_t i = 0; i < dim_; ++i) {
      double* yi = s.solve.data() + i * batch;
      const double* di = s.diff.data() + i * batch;
      for (std::size_t b = 0; b < batch; ++b) yi[b] = di[b];
      for (std::size_t k = 0; k < i; ++k) {
        const double lik = lmat(i, k);
        const double* yk = s.solve.data() + k * batch;
        for (std::size_t b = 0; b < batch; ++b) yi[b] -= lik * yk[b];
      }
      const double lii = lmat(i, i);
      for (std::size_t b = 0; b < batch; ++b) yi[b] /= lii;
    }
    // maha = ‖y‖² accumulated in ascending row order — the dot() order.
    double* mh = s.maha.data();
    for (std::size_t b = 0; b < batch; ++b) mh[b] = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
      const double* yi = s.solve.data() + i * batch;
      for (std::size_t b = 0; b < batch; ++b) mh[b] += yi[b] * yi[b];
    }
    const double cj = cache_[j].log_joint_const;
    double* tj = terms.data() + j * batch;
    for (std::size_t b = 0; b < batch; ++b) tj[b] = cj - 0.5 * mh[b];
  }

  // Per-sample log-sum-exp and responsibilities: the same component-order
  // peak/sum fold (and non-finite-peak early out) as log_sum_exp().
  for (std::size_t b = 0; b < batch; ++b) {
    double peak = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < j_count; ++j) {
      peak = std::max(peak, terms[j * batch + b]);
    }
    double lse = peak;
    if (std::isfinite(peak)) {
      double sum = 0.0;
      for (std::size_t j = 0; j < j_count; ++j) {
        sum += std::exp(terms[j * batch + b] - peak);
      }
      lse = peak + std::log(sum);
    }
    ln_density[b] = lse;
    for (std::size_t j = 0; j < j_count; ++j) {
      gamma[j * batch + b] = std::exp(terms[j * batch + b] - lse);
    }
  }
}

std::vector<double> Gmm::responsibilities(const std::vector<double>& x) const {
  thread_local Scratch scratch;
  std::vector<double> gamma;
  responsibilities_into(x, scratch, gamma);
  return gamma;
}

std::size_t Gmm::classify(const std::vector<double>& x) const {
  const auto gamma = responsibilities(x);
  return static_cast<std::size_t>(
      std::max_element(gamma.begin(), gamma.end()) - gamma.begin());
}

std::vector<double> Gmm::sample(Rng& rng) const {
  std::vector<double> weights(components_.size());
  for (std::size_t j = 0; j < weights.size(); ++j) {
    weights[j] = components_[j].weight;
  }
  const std::size_t j = rng.discrete(weights);
  std::vector<double> z(dim_);
  for (double& v : z) v = rng.normal();
  auto sample = cache_[j].chol.transform_standard_normal(z);
  for (std::size_t i = 0; i < dim_; ++i) sample[i] += components_[j].mean[i];
  return sample;
}

double Gmm::total_log_likelihood(
    const std::vector<std::vector<double>>& data) const {
  return total_log_likelihood(data, nullptr);
}

double Gmm::total_log_likelihood(const std::vector<std::vector<double>>& data,
                                 std::vector<double>* per_sample) const {
  // Score samples in parallel (index-owned writes), then fold serially in
  // sample order — bit-identical to the serial accumulation. The scores
  // stay available to the caller through `per_sample`.
  std::vector<double> local;
  std::vector<double>& scores = per_sample != nullptr ? *per_sample : local;
  scores.resize(data.size());
  parallel_for(data.size(), 0, [&](std::size_t i0, std::size_t i1) {
    Scratch scratch;
    for (std::size_t i = i0; i < i1; ++i) {
      scores[i] = log_density(data[i], scratch);
    }
  });
  return sum_log_likelihood(scores);
}

double Gmm::sum_log_likelihood(std::span<const double> per_sample) {
  double total = 0.0;
  for (double v : per_sample) total += v;
  return total;
}

std::size_t Gmm::parameter_count() const {
  const std::size_t d = dim_;
  const std::size_t per_comp = d + d * (d + 1) / 2;
  return components_.size() * per_comp + (components_.size() - 1);
}

double Gmm::bic(const std::vector<std::vector<double>>& data) const {
  return -2.0 * total_log_likelihood(data) +
         static_cast<double>(parameter_count()) *
             std::log(static_cast<double>(data.size()));
}

Gmm Gmm::from_components(std::vector<GmmComponent> components) {
  if (components.empty()) {
    throw ConfigError("Gmm::from_components: no components");
  }
  const std::size_t d = components.front().mean.size();
  if (d == 0) throw ConfigError("Gmm::from_components: zero-dimensional");
  double weight_sum = 0.0;
  for (const auto& comp : components) {
    if (comp.mean.size() != d || comp.covariance.rows() != d ||
        comp.covariance.cols() != d) {
      throw ConfigError("Gmm::from_components: inconsistent dimensions");
    }
    if (comp.weight < 0.0) {
      throw ConfigError("Gmm::from_components: negative weight");
    }
    weight_sum += comp.weight;
  }
  if (std::abs(weight_sum - 1.0) > 1e-6) {
    throw ConfigError("Gmm::from_components: weights must sum to 1");
  }
  Gmm model;
  model.dim_ = d;
  model.components_ = std::move(components);
  model.rebuild_cache();  // throws NumericalError on non-PD covariances
  return model;
}

Gmm Gmm::fit(const std::vector<std::vector<double>>& data,
             const Options& options) {
  OBS_SCOPE(kTrainEm);
  if (data.empty()) throw ConfigError("Gmm::fit: empty training set");
  const std::size_t n = data.size();
  const std::size_t d = data.front().size();
  if (d == 0) throw ConfigError("Gmm::fit: zero-dimensional data");
  const std::size_t j_count = options.components;
  if (j_count == 0) throw ConfigError("Gmm::fit: components must be positive");
  if (n < j_count) {
    throw ConfigError("Gmm::fit: fewer samples than mixture components");
  }
  for (const auto& x : data) {
    if (x.size() != d) throw ConfigError("Gmm::fit: ragged training set");
  }

  // Global data variance used to scale the covariance floor sensibly.
  std::vector<double> global_mean(d, 0.0);
  for (const auto& x : data) {
    for (std::size_t i = 0; i < d; ++i) global_mean[i] += x[i];
  }
  for (double& m : global_mean) m /= static_cast<double>(n);
  double global_var = 0.0;
  for (const auto& x : data) {
    global_var += linalg::squared_distance(x, global_mean);
  }
  global_var /= static_cast<double>(n) * static_cast<double>(d);
  const double floor = std::max(options.covariance_floor,
                                options.covariance_floor * global_var);

  // The reduced set, transposed once per fit into the d × kEmBlock column
  // blocks that responsibilities_batch reads (block b0 starts at b0 · d).
  std::vector<double> cols(n * d);
  for (std::size_t b0 = 0; b0 < n; b0 += kEmBlock) {
    const std::size_t bn = std::min(kEmBlock, n - b0);
    for (std::size_t b = 0; b < bn; ++b) {
      for (std::size_t c = 0; c < d; ++c) {
        cols[b0 * d + c * bn + b] = data[b0 + b][c];
      }
    }
  }
  Matrix init_cov = Matrix::identity(d);
  for (std::size_t i = 0; i < d; ++i) {
    init_cov(i, i) = std::max(global_var, floor);
  }

  struct Restart {
    Gmm model;
    double final_ll = -std::numeric_limits<double>::infinity();
    double last_ll = 0.0;        ///< Log-likelihood of the last E-step.
    std::size_t iterations = 0;  ///< E-steps run.
    bool failed = false;         ///< A covariance stopped being PD.
  };

  // One EM restart from k-means++ means and the shared spherical start
  // covariance. Every buffer is sized here, once; the EM steps allocate
  // nothing. Every accumulator sums over samples in ascending order, so
  // the fit is the same at every width, restart by restart.
  const auto run_restart = [&](Rng& rng) {
    OBS_SCOPE(kGmmRestart);
    Restart run;
    Gmm& model = run.model;
    model.dim_ = d;
    model.components_.resize(j_count);
    const auto centers = kmeans_plus_plus_init(data, j_count, rng);
    for (std::size_t j = 0; j < j_count; ++j) {
      model.components_[j].mean = centers[j];
      model.components_[j].covariance = init_cov;
      model.components_[j].weight = 1.0 / static_cast<double>(j_count);
    }
    model.rebuild_cache();

    std::vector<double> gamma(j_count * n);  // γ_j(x_i) at [j · n + i]
    std::vector<double> sample_ll(n);
    std::vector<double> terms;
    std::vector<double> block_gamma;
    BatchScratch batch;
    std::vector<double> diff(d);

    // E-step: responsibilities and per-sample log densities block by
    // block, then the log-likelihood folded serially in sample order.
    const auto e_step = [&] {
      for (std::size_t b0 = 0; b0 < n; b0 += kEmBlock) {
        const std::size_t bn = std::min(kEmBlock, n - b0);
        model.responsibilities_batch({cols.data() + b0 * d, bn * d}, bn,
                                     batch, terms, block_gamma,
                                     {sample_ll.data() + b0, bn});
        for (std::size_t j = 0; j < j_count; ++j) {
          std::copy_n(block_gamma.data() + j * bn, bn,
                      gamma.data() + j * n + b0);
        }
      }
      return sum_log_likelihood(sample_ll);
    };

    double prev_ll = -std::numeric_limits<double>::infinity();
    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
      const double ll = e_step();
      run.last_ll = ll;
      ++run.iterations;

      // M-step, component by component: the effective count, then either
      // a re-seed of a dead component (its draw taken in component order)
      // or the new mean and covariance.
      for (std::size_t j = 0; j < j_count; ++j) {
        auto& comp = model.components_[j];
        const double* g = gamma.data() + j * n;
        double nj = 0.0;
        for (std::size_t i = 0; i < n; ++i) nj += g[i];
        if (nj < 1e-8) {
          comp.mean = data[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
          comp.covariance = init_cov;
          comp.weight = 1.0 / static_cast<double>(n);
          continue;
        }
        comp.weight = nj / static_cast<double>(n);
        // Mean: linalg::axpy's products, then linalg::scale's.
        double* mu = comp.mean.data();
        std::fill_n(mu, d, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
          const double* x = data[i].data();
          for (std::size_t c = 0; c < d; ++c) mu[c] += g[i] * x[c];
        }
        const double inv_nj = 1.0 / nj;
        for (std::size_t c = 0; c < d; ++c) mu[c] *= inv_nj;
        // Covariance: linalg::syr_update's products, rows whose product is
        // zero skipped, then the diagonal floor.
        double* cov = comp.covariance.data().data();
        std::fill_n(cov, d * d, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
          if (g[i] == 0.0) continue;  // every row's product is zero
          const double* x = data[i].data();
          for (std::size_t c = 0; c < d; ++c) diff[c] = x[c] - mu[c];
          for (std::size_t r = 0; r < d; ++r) {
            const double axr = g[i] * diff[r];
            if (axr == 0.0) continue;
            double* row = cov + r * d;
            for (std::size_t c = 0; c < d; ++c) row[c] += axr * diff[c];
          }
        }
        for (std::size_t k = 0; k < d * d; ++k) cov[k] /= nj;
        for (std::size_t k = 0; k < d; ++k) cov[k * d + k] += floor;
      }
      // Renormalize weights (re-seeded components can distort the sum).
      double wsum = 0.0;
      for (const auto& comp : model.components_) wsum += comp.weight;
      for (auto& comp : model.components_) comp.weight /= wsum;

      try {
        model.rebuild_cache();
      } catch (const NumericalError&) {
        run.failed = true;
        return run;
      }

      if (std::isfinite(prev_ll) &&
          std::abs(ll - prev_ll) <=
              options.tolerance * std::max(1.0, std::abs(prev_ll))) {
        break;
      }
      prev_ll = ll;
    }
    run.final_ll = e_step();
    return run;
  };

  // Restarts run side by side, one per chunk; the EM inside each runs
  // inline on its worker. Rng::fork advances the master stream, so every
  // restart's stream is forked here, serially and in restart order.
  const std::size_t restarts = std::max<std::size_t>(1, options.restarts);
  Rng master(options.seed);
  std::vector<Rng> rngs;
  rngs.reserve(restarts);
  for (std::size_t r = 0; r < restarts; ++r) {
    rngs.push_back(master.fork(r + 1));
  }
  std::vector<Restart> runs(restarts);
  parallel_for(restarts, 1, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) runs[r] = run_restart(rngs[r]);
  });

  // Telemetry and the pick, serially in restart order. The gauge keeps the
  // value the serial restart loop left: the last E-step of the
  // highest-numbered restart that ran one.
  obs::Counter& em_iterations = obs::Registry::instance().counter(
      "core.gmm.em_iterations", "EM iterations run across fits and restarts");
  obs::Gauge& ll_gauge = obs::Registry::instance().gauge(
      "core.gmm.log_likelihood",
      "training log-likelihood after the most recent EM iteration");
  Gmm best;
  double best_ll = -std::numeric_limits<double>::infinity();
  for (Restart& run : runs) {
    em_iterations.add(run.iterations);
    if (run.iterations > 0) ll_gauge.set(run.last_ll);
    if (!run.failed && run.final_ll > best_ll) {
      best_ll = run.final_ll;
      best = std::move(run.model);
    }
  }

  if (best.components_.empty()) {
    throw NumericalError("Gmm::fit: every EM restart failed");
  }
  return best;
}

Gmm Gmm::select_components(const std::vector<std::vector<double>>& data,
                           std::size_t min_components,
                           std::size_t max_components, const Options& options,
                           std::size_t* chosen) {
  if (min_components == 0 || min_components > max_components) {
    throw ConfigError("Gmm::select_components: invalid component range");
  }
  Gmm best;
  double best_bic = std::numeric_limits<double>::infinity();
  std::size_t best_j = 0;
  for (std::size_t j = min_components; j <= max_components; ++j) {
    if (j > data.size()) break;
    Options opts = options;
    opts.components = j;
    Gmm model = fit(data, opts);
    const double score = model.bic(data);
    if (score < best_bic) {
      best_bic = score;
      best = std::move(model);
      best_j = j;
    }
  }
  if (best.components_.empty()) {
    throw ConfigError("Gmm::select_components: no model could be fit");
  }
  if (chosen != nullptr) *chosen = best_j;
  return best;
}

}  // namespace mhm
