// The deterministic parallel runtime's contract: for a fixed input and seed,
// every result in the repository is bit-identical at any thread count —
// including 1, which must also match the historical serial code. These tests
// sweep thread counts {1, 2, 8} over the ThreadPool primitives and the
// parallelized hot paths (trace collection, Eigenmemory::fit, Gmm::fit, the
// scenario fan-out and its per-scenario observation).

#include "common/parallel.hpp"

#include <atomic>
#include <bit>
#include <numeric>
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

TEST(ParallelDeterminism, GmmFitBitIdentical) {
  GlobalThreadsGuard guard;
  const auto data = synthetic_samples(80, 4, 11);
  Gmm::Options opts;
  opts.components = 2;
  opts.restarts = 3;
  opts.max_iterations = 50;
  std::vector<Gmm> fits;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    set_global_threads(threads);
    fits.push_back(Gmm::fit(data, opts));
  }
  for (std::size_t f = 1; f < fits.size(); ++f) {
    ASSERT_EQ(fits[0].component_count(), fits[f].component_count());
    for (std::size_t j = 0; j < fits[0].component_count(); ++j) {
      const auto& a = fits[0].components()[j];
      const auto& b = fits[f].components()[j];
      EXPECT_EQ(a.weight, b.weight) << "component " << j;
      EXPECT_EQ(a.mean, b.mean) << "component " << j;
      const auto ca = a.covariance.data();
      const auto cb = b.covariance.data();
      ASSERT_EQ(ca.size(), cb.size());
      for (std::size_t i = 0; i < ca.size(); ++i) {
        ASSERT_EQ(ca[i], cb[i]) << "cov element " << i;
      }
    }
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
