#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/error.hpp"

namespace mhm {

/// Deterministic pseudo-random generator (xoshiro256++).
///
/// Everything stochastic in the repository — task jitter, EM restarts,
/// k-means++ seeding, synthetic workload variation — draws from this class so
/// that every experiment is reproducible from a single 64-bit seed.
/// Satisfies UniformRandomBitGenerator, so it also works with <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64 bits.
  result_type operator()();

  /// Derive an independent child stream (for per-task / per-restart RNGs).
  /// Children with different `stream_id` are decorrelated from the parent
  /// and from each other. Forking draws one value from this stream, so it
  /// advances the parent: fork children in a fixed order (serially, before
  /// any concurrent use) to keep every child's stream reproducible.
  Rng fork(std::uint64_t stream_id);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (cached spare).
  double normal();

  /// Normal with given mean / standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal such that the *multiplicative* jitter has median 1 and the
  /// given coefficient-of-variation-like sigma (sigma of underlying normal).
  /// Used for execution-time and access-count jitter.
  double lognormal_jitter(double sigma);

  /// Exponential with the given rate (lambda > 0).
  double exponential(double rate);

  /// Poisson with the given mean (small means: Knuth; large: normal approx).
  std::uint64_t poisson(double mean);

  /// Sample an index according to (unnormalized, non-negative) weights.
  std::size_t discrete(const std::vector<double>& weights);

  /// Bernoulli trial.
  bool bernoulli(double p);

  /// Fisher–Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace mhm
