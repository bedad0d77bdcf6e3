// The deterministic parallel runtime's contract: for a fixed input and seed,
// every result in the repository is bit-identical at any thread count —
// including 1, which must also match the historical serial code. These tests
// sweep thread counts {1, 2, 8} over the ThreadPool primitives and the
// parallelized hot paths (trace collection, Eigenmemory::fit, Gmm::fit, the
// scenario fan-out and its per-scenario observation).

#include "common/parallel.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <initializer_list>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/gmm.hpp"
#include "core/pca.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "pipeline/experiment.hpp"

namespace mhm {
namespace {

/// Restores the global pool default even if a test fails mid-sweep.
class GlobalThreadsGuard {
 public:
  ~GlobalThreadsGuard() { set_global_threads(0); }
};

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ThreadPool pool(threads);
    const std::size_t n = 10'000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, 37, [&](std::size_t begin, std::size_t end) {
      ASSERT_LE(begin, end);
      ASSERT_LE(end, n);
      for (std::size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPool, EmptyAndSingleChunkRanges) {
  ThreadPool pool(4);
  std::size_t calls = 0;
  pool.parallel_for(0, 10, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  pool.parallel_for(5, 100, [&](std::size_t begin, std::size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPool, EffectiveGrainIsThreadCountIndependent) {
  // The chunk grid is a pure function of (n, grain) — never the pool width.
  EXPECT_EQ(ThreadPool::effective_grain(1000, 10), 10u);
  EXPECT_EQ(ThreadPool::effective_grain(1000, 0),
            (1000 + ThreadPool::kDefaultChunks - 1) / ThreadPool::kDefaultChunks);
  EXPECT_EQ(ThreadPool::effective_grain(3, 0), 1u);
}

TEST(ThreadPool, BodyExceptionPropagatesToCaller) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(1000, 10,
                          [&](std::size_t begin, std::size_t) {
                            if (begin >= 500) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
  }
}

TEST(ThreadPool, ParallelReduceIsBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 100'000;
  std::vector<double> xs(n);
  Rng rng(42);
  for (double& x : xs) x = rng.uniform(-1.0, 1.0);

  auto sum_with = [&](std::size_t threads) {
    ThreadPool pool(threads);
    return pool.parallel_reduce(
        n, 0, 0.0,
        [&](std::size_t begin, std::size_t end) {
          double s = 0.0;
          for (std::size_t i = begin; i < end; ++i) s += xs[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double serial = sum_with(1);
  EXPECT_EQ(serial, sum_with(2));
  EXPECT_EQ(serial, sum_with(8));
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, 1, [&](std::size_t, std::size_t) {
    pool.parallel_for(16, 1, [&](std::size_t begin, std::size_t end) {
      inner_total.fetch_add(static_cast<int>(end - begin));
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

std::vector<std::vector<double>> synthetic_samples(std::size_t n,
                                                   std::size_t d,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> xs(n, std::vector<double>(d));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      // Two offset clusters so a small GMM has real structure to find.
      xs[i][j] = rng.normal() + (i % 2 == 0 ? 0.0 : 4.0);
    }
  }
  return xs;
}

TEST(ParallelDeterminism, EigenmemoryFitBitIdentical) {
  GlobalThreadsGuard guard;
  // Covariance path (N >= L) and Gram path (N < L).
  for (const bool gram : {false, true}) {
    const auto data = gram ? synthetic_samples(12, 40, 7)
                           : synthetic_samples(60, 16, 7);
    Eigenmemory::Options opts;
    opts.components = 5;
    std::vector<Eigenmemory> fits;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      set_global_threads(threads);
      fits.push_back(Eigenmemory::fit(data, opts));
    }
    for (std::size_t f = 1; f < fits.size(); ++f) {
      EXPECT_EQ(fits[0].mean(), fits[f].mean()) << "gram=" << gram;
      EXPECT_EQ(fits[0].eigenvalues(), fits[f].eigenvalues());
      const auto b0 = fits[0].basis().data();
      const auto bf = fits[f].basis().data();
      ASSERT_EQ(b0.size(), bf.size());
      for (std::size_t i = 0; i < b0.size(); ++i) {
        ASSERT_EQ(b0[i], bf[i]) << "basis element " << i << " gram=" << gram;
      }
    }
  }
}

/// Paper-shaped reduced data: `clusters` Gaussian blobs in d dimensions
/// with centres in [-6, 6] and per-blob spreads in [0.5, 2].
std::vector<std::vector<double>> clustered_samples(std::size_t n,
                                                   std::size_t d,
                                                   std::size_t clusters,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> centers(clusters, std::vector<double>(d));
  std::vector<double> spread(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    for (double& v : centers[c]) v = rng.uniform(-6.0, 6.0);
    spread[c] = rng.uniform(0.5, 2.0);
  }
  std::vector<std::vector<double>> xs(n, std::vector<double>(d));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % clusters;
    for (std::size_t k = 0; k < d; ++k) {
      xs[i][k] = centers[c][k] + spread[c] * rng.normal();
    }
  }
  return xs;
}

/// Blobs whose spreads span eight decades: some are exact duplicates, some
/// Gaussian, some heavy-tailed. EM starves components on such data, so fits
/// run through the dead-component re-seed.
std::vector<std::vector<double>> multi_scale_samples(std::size_t n,
                                                     std::size_t d,
                                                     std::size_t clusters,
                                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> centers(clusters, std::vector<double>(d));
  std::vector<double> spread(clusters);
  std::vector<std::int64_t> kind(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    for (double& v : centers[c]) {
      v = rng.uniform(-10.0, 10.0) *
          std::pow(10.0, static_cast<double>(rng.uniform_int(-3, 3)));
    }
    spread[c] = std::pow(10.0, static_cast<double>(rng.uniform_int(-6, 2)));
    kind[c] = rng.uniform_int(0, 2);
  }
  std::vector<std::vector<double>> xs(n, std::vector<double>(d));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % clusters;
    for (std::size_t k = 0; k < d; ++k) {
      const double noise =
          kind[c] == 0   ? 0.0
          : kind[c] == 1 ? rng.normal()
                         : std::tan(3.1 * (rng.uniform() - 0.5));
      xs[i][k] = centers[c][k] + noise * spread[c];
    }
  }
  return xs;
}

/// FNV-1a over the IEEE-754 bits of every weight, mean and covariance of a
/// fitted mixture, in component order.
std::uint64_t gmm_digest(const Gmm& gmm) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&](double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& comp : gmm.components()) {
    fold(comp.weight);
    for (double v : comp.mean) fold(v);
    for (double v : comp.covariance.data()) fold(v);
  }
  return h;
}

/// Fits at every width in `widths` and expects each fit to match `digest`.
/// A fixed digest, rather than agreement across widths, also catches a
/// change that moves the model the same way at every width.
void expect_fit_pinned(const std::vector<std::vector<double>>& data,
                       const Gmm::Options& opts,
                       std::initializer_list<std::size_t> widths,
                       std::uint64_t digest) {
  for (const std::size_t threads : widths) {
    set_global_threads(threads);
    const Gmm fit = Gmm::fit(data, opts);
    ASSERT_EQ(fit.component_count(), opts.components);
    std::ostringstream weights;
    for (const auto& comp : fit.components()) {
      weights << std::hexfloat << comp.weight << ' ';
    }
    EXPECT_EQ(gmm_digest(fit), digest)
        << "at " << threads << " threads; weights " << weights.str()
        << "; digest 0x" << std::hex << gmm_digest(fit);
  }
}

TEST(ParallelDeterminism, GmmFitBitIdentical) {
  GlobalThreadsGuard guard;
  {
    SCOPED_TRACE("small: n = 80, d = 4, J = 2, 3 restarts");
    Gmm::Options opts;
    opts.components = 2;
    opts.restarts = 3;
    opts.max_iterations = 50;
    expect_fit_pinned(synthetic_samples(80, 4, 11), opts, {1, 2, 8},
                      0xa85cce665c9fb132ULL);
  }
  {
    SCOPED_TRACE("paper shape: n = 1,200, d = 9, J = 5, 10 restarts");
    Gmm::Options opts;  // J = 5, 10 restarts: the paper's settings
    expect_fit_pinned(clustered_samples(1200, 9, 7, 21), opts, {1, 3, 4, 8},
                      0xceb5abc64ea0a854ULL);
  }
  {
    SCOPED_TRACE("dead-component re-seed: n = 150, d = 5, J = 6");
    const auto data = multi_scale_samples(150, 5, 5, 29);
    Gmm::Options opts;
    opts.components = 6;
    opts.restarts = 4;
    opts.seed = 7;
    // Every restart starves component 4 from its eighth EM iteration on.
    // Stopped after ten iterations, the one restart therefore returns that
    // component as re-seeded: the spherical start covariance at the data's
    // global variance. An M-step leaves no off-diagonal cell at exactly
    // zero here, and a component collapsed onto duplicates sits at the
    // 1e-9-scaled floor instead.
    Gmm::Options cut = opts;
    cut.restarts = 1;
    cut.max_iterations = 10;
    const Gmm reseeded = Gmm::fit(data, cut);
    const auto& cov = reseeded.components()[4].covariance;
    EXPECT_GT(cov(0, 0), 1.0);
    for (std::size_t r = 0; r < cov.rows(); ++r) {
      EXPECT_EQ(cov(r, r), cov(0, 0)) << "row " << r;
      for (std::size_t c = 0; c < cov.cols(); ++c) {
        if (c != r) {
          EXPECT_EQ(cov(r, c), 0.0) << "cell " << r << "," << c;
        }
      }
    }
    expect_fit_pinned(data, opts, {1, 3, 4, 8}, 0xda3ad4bb317c1d16ULL);
  }
}

TEST(ParallelDeterminism, KmeansPlusPlusInitBitIdentical) {
  GlobalThreadsGuard guard;
  const auto data = synthetic_samples(100, 6, 13);
  std::vector<std::vector<std::vector<double>>> inits;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    set_global_threads(threads);
    Rng rng(99);
    inits.push_back(kmeans_plus_plus_init(data, 4, rng));
  }
  EXPECT_EQ(inits[0], inits[1]);
  EXPECT_EQ(inits[0], inits[2]);
}

TEST(ParallelDeterminism, CollectNormalTraceBitIdentical) {
  GlobalThreadsGuard guard;
  const sim::SystemConfig cfg = pipeline::fast_test_config();
  pipeline::ProfilingPlan plan = pipeline::fast_test_plan();
  plan.runs = 3;
  plan.run_duration = 300 * kMillisecond;

  std::vector<HeatMapTrace> traces;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    set_global_threads(threads);
    traces.push_back(pipeline::collect_normal_trace(cfg, plan));
  }
  for (std::size_t t = 1; t < traces.size(); ++t) {
    ASSERT_EQ(traces[0].size(), traces[t].size());
    for (std::size_t i = 0; i < traces[0].size(); ++i) {
      ASSERT_EQ(traces[0][i].interval_index, traces[t][i].interval_index);
      ASSERT_EQ(traces[0][i].counts(), traces[t][i].counts()) << "map " << i;
    }
  }
}

TEST(ParallelDeterminism, ScenarioFanOutMatchesSerialRuns) {
  GlobalThreadsGuard guard;
  const sim::SystemConfig cfg = pipeline::fast_test_config();
  pipeline::ProfilingPlan plan = pipeline::fast_test_plan();
  plan.runs = 2;
  plan.run_duration = 300 * kMillisecond;

  set_global_threads(2);
  const auto pipe = pipeline::train_pipeline(
      cfg, plan, pipeline::fast_test_detector_options());

  const SimTime duration = 30 * cfg.monitor.interval;
  std::vector<pipeline::ScenarioSpec> specs = {
      {.attack = "", .trigger_time = 0, .duration = duration, .seed = 501},
      {.attack = "", .trigger_time = 0, .duration = duration, .seed = 502},
      {.attack = "", .trigger_time = 0, .duration = duration, .seed = 503},
  };
  const engine::DetectionEngine engine = pipe.make_engine();
  const auto batch = pipeline::run_scenarios(cfg, specs, &engine);
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    engine::Session session = engine.new_session();
    const auto serial = pipeline::run_scenario(cfg, nullptr, 0, duration,
                                               &session, specs[s].seed);
    EXPECT_EQ(batch[s].log10_densities(), serial.log10_densities())
        << "scenario " << s;
  }
}

/// Registry counter value by dotted name (0 when absent).
double counter_value(const std::vector<obs::MetricSnapshot>& snap,
                     const std::string& name) {
  for (const auto& m : snap) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

// One session per scenario: an 8-spec batch scored at 1 and at 4 threads
// yields bit-identical verdicts, and its observation adds the same amounts
// to the detector counters (total and per hyperperiod phase).
TEST(ParallelDeterminism, ScenarioObservationMatchesAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  const sim::SystemConfig cfg = pipeline::fast_test_config();
  pipeline::ProfilingPlan plan = pipeline::fast_test_plan();
  plan.runs = 2;
  plan.run_duration = 300 * kMillisecond;
  const auto pipe = pipeline::train_pipeline(
      cfg, plan, pipeline::fast_test_detector_options());
  const engine::DetectionEngine engine = pipe.make_engine();

  const SimTime duration = 30 * cfg.monitor.interval;
  std::vector<pipeline::ScenarioSpec> specs;
  for (std::uint64_t s = 0; s < 8; ++s) {
    specs.push_back({.attack = s % 2 == 0 ? "" : "shellcode",
                     .trigger_time = 10 * cfg.monitor.interval,
                     .duration = duration,
                     .seed = 700 + s});
  }
  std::vector<std::string> names = {"detector.intervals_analyzed",
                                    "detector.alarms"};
  for (std::size_t p = 0; p < 10; ++p) {
    names.push_back("detector.alarms_by_phase." + std::to_string(p));
  }

  std::vector<std::vector<pipeline::ScenarioRun>> batches;
  std::vector<std::vector<double>> deltas;
  for (const std::size_t threads : {1u, 4u}) {
    set_global_threads(threads);
    const auto before = obs::Registry::instance().snapshot();
    batches.push_back(pipeline::run_scenarios(cfg, specs, &engine));
    const auto after = obs::Registry::instance().snapshot();
    std::vector<double> delta;
    for (const auto& name : names) {
      delta.push_back(counter_value(after, name) -
                      counter_value(before, name));
    }
    deltas.push_back(std::move(delta));
  }

  ASSERT_EQ(batches[0].size(), specs.size());
  ASSERT_EQ(batches[1].size(), specs.size());
  std::size_t intervals = 0;
  std::size_t alarms = 0;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const auto& a = batches[0][s].verdicts;
    const auto& b = batches[1][s].verdicts;
    ASSERT_EQ(a.size(), b.size()) << "scenario " << s;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].log10_density),
                std::bit_cast<std::uint64_t>(b[i].log10_density))
          << "scenario " << s << " interval " << i;
      EXPECT_EQ(a[i].anomalous, b[i].anomalous);
      EXPECT_EQ(a[i].nearest_pattern, b[i].nearest_pattern);
      alarms += a[i].anomalous;
    }
    intervals += a.size();
  }
  EXPECT_EQ(deltas[0], deltas[1]);
  EXPECT_EQ(deltas[0][0], static_cast<double>(intervals));
  EXPECT_EQ(deltas[0][1], static_cast<double>(alarms));
  EXPECT_GT(alarms, 0u);
  obs::set_enabled(obs_was_enabled);
}

}  // namespace
}  // namespace mhm
