#include "sim/kernel_services.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "hw/trace_recorder.hpp"

namespace mhm::sim {
namespace {

class KernelServicesTest : public ::testing::Test {
 protected:
  KernelImage image_;
  ServiceCatalog catalog_{image_};
  hw::MemoryBus bus_;
  hw::TraceRecorder recorder_;
  Rng rng_{99};

  void SetUp() override { bus_.attach(&recorder_); }
};

TEST_F(KernelServicesTest, DefaultCatalogHasExpectedServices) {
  for (const char* name :
       {"sys_read", "sys_write", "sys_open", "sys_close", "sys_gettimeofday",
        "sys_nanosleep", "sys_mmap", "sys_brk", "sys_ipc", "do_fork",
        "do_execve", "do_exit", "sys_kill", "sys_waitpid", "sys_personality",
        "sys_mprotect", "load_module", "page_fault", "sched_tick",
        "context_switch", "irq_dispatch", "idle_loop", "kworker"}) {
    EXPECT_TRUE(catalog_.contains(name)) << name;
  }
  EXPECT_FALSE(catalog_.contains("sys_does_not_exist"));
  EXPECT_THROW(catalog_.id("sys_does_not_exist"), ConfigError);
}

TEST_F(KernelServicesTest, EveryStepReferencesValidFunction) {
  for (std::size_t s = 0; s < catalog_.size(); ++s) {
    for (const auto& step : catalog_.service(s).steps) {
      EXPECT_LT(step.function, image_.functions().size());
      EXPECT_GT(step.mean_sweeps, 0.0);
    }
  }
}

TEST_F(KernelServicesTest, InvokeEmitsOneBurstPerStep) {
  const ServiceId sid = catalog_.id("sys_read");
  (void)catalog_.invoke(sid, 1000, bus_, rng_);
  EXPECT_EQ(recorder_.bursts().size(), catalog_.service(sid).steps.size());
  for (const auto& b : recorder_.bursts()) {
    EXPECT_EQ(b.time, 1000u);
    EXPECT_GE(b.sweeps, 1u);
  }
}

TEST_F(KernelServicesTest, InvokedBurstsLieInsideKernelText) {
  (void)catalog_.invoke(catalog_.id("do_execve"), 0, bus_, rng_);
  for (const auto& b : recorder_.bursts()) {
    EXPECT_GE(b.base, image_.base());
    EXPECT_LE(b.base + b.size_bytes, image_.text_end());
  }
}

TEST_F(KernelServicesTest, InvokeReturnsJitteredDuration) {
  const ServiceId sid = catalog_.id("sys_read");
  const SimTime mean = catalog_.service(sid).mean_duration;
  RunningStats durations;
  for (int i = 0; i < 500; ++i) {
    durations.add(static_cast<double>(catalog_.invoke(sid, i, bus_, rng_)));
  }
  EXPECT_NEAR(durations.mean(), static_cast<double>(mean),
              0.05 * static_cast<double>(mean));
  EXPECT_GT(durations.stddev(), 0.0);  // jitter present
}

TEST_F(KernelServicesTest, ExtraLatencyAddsToDuration) {
  const ServiceId sid = catalog_.id("sys_read");
  const SimTime plain = catalog_.invoke(sid, 0, bus_, rng_);
  const SimTime extra = 500 * kMicrosecond;
  const SimTime with = catalog_.invoke(sid, 1, bus_, rng_, extra);
  EXPECT_GT(with, plain);
  EXPECT_GE(with, extra);
}

TEST_F(KernelServicesTest, ExtraLatencyEmitsNoExtraFetches) {
  // The rootkit detour runs outside the monitored region: the same number
  // of monitored bursts must be emitted with and without the latency.
  const ServiceId sid = catalog_.id("sys_read");
  (void)catalog_.invoke(sid, 0, bus_, rng_);
  const std::size_t plain_bursts = recorder_.bursts().size();
  recorder_.clear();
  (void)catalog_.invoke(sid, 1, bus_, rng_, 500 * kMicrosecond);
  EXPECT_EQ(recorder_.bursts().size(), plain_bursts);
}

TEST_F(KernelServicesTest, ExpectedAccessesApproximatesEmission) {
  const ServiceId sid = catalog_.id("load_module");
  const double expected = catalog_.service(sid).expected_accesses(image_);
  RunningStats emitted;
  for (int i = 0; i < 300; ++i) {
    recorder_.clear();
    (void)catalog_.invoke(sid, i, bus_, rng_);
    emitted.add(static_cast<double>(recorder_.total_accesses()));
  }
  EXPECT_NEAR(emitted.mean(), expected, 0.1 * expected);
}

TEST_F(KernelServicesTest, ServicesTouchTheirSubsystems) {
  // sys_read must touch fs; load_module must touch the module loader.
  auto touches = [&](const char* service, const char* subsystem) {
    const auto sub_idx = image_.subsystem_index(subsystem);
    for (const auto& step : catalog_.service(catalog_.id(service)).steps) {
      if (image_.function(step.function).subsystem == sub_idx) return true;
    }
    return false;
  };
  EXPECT_TRUE(touches("sys_read", "fs"));
  EXPECT_TRUE(touches("load_module", "module"));
  EXPECT_TRUE(touches("do_fork", "mm"));
  EXPECT_TRUE(touches("sched_tick", "time"));
  EXPECT_TRUE(touches("context_switch", "sched"));
  EXPECT_FALSE(touches("sys_gettimeofday", "net"));
}

TEST_F(KernelServicesTest, DistinctServicesHaveDistinctFootprints) {
  // Different syscalls must be distinguishable in an MHM: their step
  // function sets must not be identical.
  auto functions_of = [&](const char* name) {
    std::vector<std::size_t> fns;
    for (const auto& step : catalog_.service(catalog_.id(name)).steps) {
      fns.push_back(step.function);
    }
    return fns;
  };
  EXPECT_NE(functions_of("sys_read"), functions_of("sys_write"));
  EXPECT_NE(functions_of("do_fork"), functions_of("do_execve"));
}

TEST_F(KernelServicesTest, AddCustomService) {
  KernelService svc;
  svc.name = "custom_op";
  svc.steps.push_back(ServiceStep{.function = 0, .mean_sweeps = 2.0});
  const ServiceId sid = catalog_.add(svc);
  EXPECT_TRUE(catalog_.contains("custom_op"));
  EXPECT_EQ(catalog_.id("custom_op"), sid);
}

TEST_F(KernelServicesTest, AddRejectsDuplicateName) {
  KernelService svc;
  svc.name = "sys_read";
  EXPECT_THROW(catalog_.add(svc), ConfigError);
}

TEST_F(KernelServicesTest, AddRejectsUnknownFunction) {
  KernelService svc;
  svc.name = "bad_service";
  svc.steps.push_back(
      ServiceStep{.function = image_.functions().size(), .mean_sweeps = 1.0});
  EXPECT_THROW(catalog_.add(svc), LogicError);
}

TEST_F(KernelServicesTest, HeavyweightServicesEmitMoreThanLightweight) {
  const double fork_cost =
      catalog_.service(catalog_.id("do_fork")).expected_accesses(image_);
  const double gtod_cost =
      catalog_.service(catalog_.id("sys_gettimeofday")).expected_accesses(image_);
  EXPECT_GT(fork_cost, 5.0 * gtod_cost);
}

// --- SweepRounding: the exp-free nominal range equals the formula. ---

std::uint64_t reference_sweeps(double mean, double sigma, double z) {
  return static_cast<std::uint64_t>(
      std::max(1.0, std::round(mean * std::exp(sigma * z))));
}

/// z within ±4 ulp of every rounding edge ln((k + ½)/mean)/sigma up to two
/// counts past the nominal one, and of the ends of the rule's fast range.
std::vector<double> edge_draws(const SweepRounding& rule, double mean,
                               double sigma) {
  std::vector<double> edges{rule.lo(), rule.hi()};
  if (sigma > 0.0 && mean > 0.0) {
    const double top = std::max(1.0, std::round(mean)) + 2.0;
    for (double k = 0.0; k <= top; k += 1.0) {
      edges.push_back(std::log((k + 0.5) / mean) / sigma);
    }
  }
  std::vector<double> zs;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double edge : edges) {
    if (!std::isfinite(edge)) continue;
    double down = edge;
    double up = edge;
    zs.push_back(edge);
    for (int i = 0; i < 4; ++i) {
      down = std::nextafter(down, -kInf);
      up = std::nextafter(up, kInf);
      zs.push_back(down);
      zs.push_back(up);
    }
  }
  return zs;
}

std::size_t rounding_mismatches(double mean, double sigma,
                                const std::vector<double>& zs) {
  const SweepRounding rule(mean, sigma);
  std::size_t bad = 0;
  for (const double z : zs) bad += rule(z) != reference_sweeps(mean, sigma, z);
  for (const double z : edge_draws(rule, mean, sigma)) {
    bad += rule(z) != reference_sweeps(mean, sigma, z);
  }
  return bad;
}

TEST(SweepRounding, MatchesFormulaForEveryCatalogStepAndJitterScale) {
  std::vector<double> zs(1'000'000);
  Rng rng(2024);
  for (double& z : zs) z = rng.normal();
  zs.insert(zs.end(), {0.0, -0.0, 8.0, -8.0, 37.0, -37.0});

  const KernelImage image;
  std::set<std::pair<double, double>> pairs;  // (mean_sweeps, sweep_sigma)
  for (const double scale : {0.0, 0.5, 1.0, 1.25, 2.0}) {
    const ServiceCatalog catalog(image, scale);
    for (std::size_t s = 0; s < catalog.size(); ++s) {
      for (const auto& step : catalog.service(s).steps) {
        pairs.emplace(step.mean_sweeps, catalog.service(s).sweep_sigma);
      }
    }
  }
  ASSERT_GE(pairs.size(), 5u);
  for (const auto& [mean, sigma] : pairs) {
    EXPECT_EQ(rounding_mismatches(mean, sigma, zs), 0u)
        << "mean " << mean << " sigma " << sigma;
  }
}

TEST(SweepRounding, MatchesFormulaAtAwkwardMeansAndSigmas) {
  std::vector<double> zs(100'000);
  Rng rng(7);
  for (double& z : zs) z = rng.normal();
  // A mean on a rounding edge, sub-unit means, a near-edge mean with a tiny
  // sigma, and a very wide sigma.
  for (const auto& [mean, sigma] :
       std::vector<std::pair<double, double>>{{1.5, 0.1},
                                              {2.5, 0.37},
                                              {0.3, 0.2},
                                              {1e-3, 1.0},
                                              {7.4999999, 1e-3},
                                              {40.0, 3.0},
                                              {12.0, 0.0}}) {
    EXPECT_EQ(rounding_mismatches(mean, sigma, zs), 0u)
        << "mean " << mean << " sigma " << sigma;
  }
  EXPECT_THROW(SweepRounding(1.0, -0.1), LogicError);
}

TEST(SweepRounding, AddedServiceInvokeMatchesFormula) {
  // A service add()ed after construction keeps its own sigma (jitter_scale
  // applies to the default catalog only) and still rounds exactly.
  const KernelImage image;
  ServiceCatalog catalog(image, 1.25);
  KernelService svc;
  svc.name = "custom";
  svc.sweep_sigma = 0.37;
  const double means[] = {1.5, 2.5, 0.3, 7.49};
  for (std::size_t i = 0; i < 4; ++i) {
    svc.steps.push_back(ServiceStep{.function = i, .mean_sweeps = means[i]});
  }
  const ServiceId sid = catalog.add(svc);

  hw::MemoryBus bus;
  hw::TraceRecorder recorder;
  bus.attach(&recorder);
  Rng rng(5);
  Rng twin(5);
  std::size_t b = 0;
  for (int call = 0; call < 2000; ++call) {
    (void)catalog.invoke(sid, static_cast<SimTime>(call), bus, rng);
    for (const double mean : means) {
      ASSERT_EQ(recorder.bursts()[b++].sweeps,
                reference_sweeps(mean, 0.37, twin.normal()));
    }
    (void)twin.normal();  // the duration draw
  }
}

}  // namespace
}  // namespace mhm::sim
