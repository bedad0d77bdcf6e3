#include "sim/system.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "attacks/attacks.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace mhm::sim {
namespace {

SystemConfig small_config(std::uint64_t seed = 1) {
  SystemConfig cfg = SystemConfig::paper_default(seed);
  cfg.monitor.granularity = 8 * 1024;  // fewer cells, faster tests
  return cfg;
}

TEST(System, PaperDefaultConfiguration) {
  const SystemConfig cfg = SystemConfig::paper_default();
  EXPECT_EQ(cfg.monitor.cell_count(), 1472u);
  EXPECT_EQ(cfg.tasks.size(), 4u);
  EXPECT_EQ(cfg.snoop_point, SnoopPoint::PreL1);
  EXPECT_NO_THROW(System{cfg});
}

TEST(System, ProducesOneMapPerInterval) {
  System system(small_config());
  system.run_for(500 * kMillisecond);
  // 10 ms intervals over 500 ms -> 50 completed maps.
  EXPECT_EQ(system.trace().size(), 50u);
  for (std::size_t i = 0; i < system.trace().size(); ++i) {
    EXPECT_EQ(system.trace()[i].interval_index, i);
  }
}

TEST(System, MapsContainPlausibleTraffic) {
  System system(small_config());
  system.run_for(500 * kMillisecond);
  for (const auto& map : system.trace()) {
    // Figure 9 shows roughly 10^4..10^5 accesses per 10 ms interval.
    EXPECT_GT(map.total_accesses(), 1'000u) << summarize(map);
    EXPECT_LT(map.total_accesses(), 10'000'000u) << summarize(map);
    EXPECT_GT(map.active_cells(), 5u);
  }
}

TEST(System, DeterministicForSameSeed) {
  System a(small_config(7));
  System b(small_config(7));
  a.run_for(300 * kMillisecond);
  b.run_for(300 * kMillisecond);
  ASSERT_EQ(a.trace().size(), b.trace().size());
  for (std::size_t i = 0; i < a.trace().size(); ++i) {
    EXPECT_EQ(a.trace()[i].counts(), b.trace()[i].counts()) << "map " << i;
  }
}

TEST(System, DifferentSeedsDiffer) {
  System a(small_config(1));
  System b(small_config(2));
  a.run_for(200 * kMillisecond);
  b.run_for(200 * kMillisecond);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.trace().size(); ++i) {
    any_diff |= a.trace()[i].counts() != b.trace()[i].counts();
  }
  EXPECT_TRUE(any_diff);
}

TEST(System, IntervalObserverSeesEveryMap) {
  System system(small_config());
  std::size_t observed = 0;
  system.set_interval_observer([&](const HeatMap&) { ++observed; });
  system.run_for(200 * kMillisecond);
  EXPECT_EQ(observed, system.trace().size());
}

TEST(System, TakeTraceMovesAndClears) {
  System system(small_config());
  system.run_for(100 * kMillisecond);
  const auto trace = system.take_trace();
  EXPECT_EQ(trace.size(), 10u);
  EXPECT_TRUE(system.trace().empty());
}

TEST(System, RejectsMonitorOutsideKernelText) {
  SystemConfig cfg = small_config();
  cfg.monitor.base = 0x1000;  // not in kernel .text
  EXPECT_THROW(System{cfg}, ConfigError);
}

TEST(System, RejectsIntervalNotMultipleOfTick) {
  SystemConfig cfg = small_config();
  cfg.monitor.interval = 1500 * kMicrosecond;
  EXPECT_THROW(System{cfg}, ConfigError);
}

TEST(System, MonitoredTrafficConfinedToRegion) {
  // Every counted access must come from inside [base, base+size): totals
  // of the memometer must match the sum over all maps.
  System system(small_config());
  system.run_for(300 * kMillisecond);
  std::uint64_t sum = 0;
  for (const auto& m : system.trace()) sum += m.total_accesses();
  // Active (incomplete) interval may hold more counts not yet delivered.
  EXPECT_GE(system.memometer().accesses_counted(), sum);
  EXPECT_GT(system.memometer().accesses_filtered_out(), 0u);  // user traffic
}

TEST(System, HyperperiodPhasesProduceRepeatingPatterns) {
  // The 100 ms hyperperiod spans 10 intervals: interval i and i+10 share
  // the same task phases, so their maps must correlate strongly more often
  // than maps at unrelated phases.
  System system(small_config(3));
  system.run_for(2 * kSecond);
  const auto& trace = system.trace();
  ASSERT_GE(trace.size(), 60u);

  auto correlation = [&](std::size_t a, std::size_t b) {
    return pearson_correlation(trace[a].as_vector(), trace[b].as_vector());
  };
  double same_phase = 0.0;
  double other_phase = 0.0;
  int n = 0;
  for (std::size_t i = 20; i < 50; ++i) {
    same_phase += correlation(i, i + 10);
    other_phase += correlation(i, i + 13);
    ++n;
  }
  EXPECT_GT(same_phase / n, other_phase / n);
}

TEST(System, PostL1SnoopSeesFewerAccesses) {
  // §5.5: below the cache, hits are invisible -> far less traffic.
  SystemConfig pre = small_config(4);
  SystemConfig post = small_config(4);
  post.snoop_point = SnoopPoint::PostL1;

  System sys_pre(pre);
  System sys_post(post);
  sys_pre.run_for(300 * kMillisecond);
  sys_post.run_for(300 * kMillisecond);

  std::uint64_t pre_total = 0;
  std::uint64_t post_total = 0;
  for (const auto& m : sys_pre.trace()) pre_total += m.total_accesses();
  for (const auto& m : sys_post.trace()) post_total += m.total_accesses();
  EXPECT_LT(post_total, pre_total / 2);
  EXPECT_GT(post_total, 0u);
  ASSERT_NE(sys_post.l1_cache(), nullptr);
  EXPECT_GT(sys_post.l1_cache()->hit_rate(), 0.5);
}

TEST(System, PostL2SnoopSeesEvenFewer) {
  SystemConfig post1 = small_config(5);
  post1.snoop_point = SnoopPoint::PostL1;
  SystemConfig post2 = small_config(5);
  post2.snoop_point = SnoopPoint::PostL2;

  System a(post1);
  System b(post2);
  a.run_for(300 * kMillisecond);
  b.run_for(300 * kMillisecond);

  std::uint64_t l1_total = 0;
  std::uint64_t l2_total = 0;
  for (const auto& m : a.trace()) l1_total += m.total_accesses();
  for (const auto& m : b.trace()) l2_total += m.total_accesses();
  EXPECT_LE(l2_total, l1_total);
  ASSERT_NE(b.l2_cache(), nullptr);
}

TEST(System, RuntimeTaskManipulationHooks) {
  System system(small_config());
  system.run_for(100 * kMillisecond);
  system.launch_task(qsort_task_spec());
  system.run_for(100 * kMillisecond);
  EXPECT_GT(system.scheduler().task("qsort").jobs_completed, 0u);
  system.kill_task("qsort");
  const auto jobs = system.scheduler().task("qsort").jobs_completed;
  system.run_for(100 * kMillisecond);
  EXPECT_EQ(system.scheduler().task("qsort").jobs_completed, jobs);
}

TEST(System, ScheduledActionRuns) {
  System system(small_config());
  bool fired = false;
  system.at(50 * kMillisecond, [&] { fired = true; });
  system.run_for(100 * kMillisecond);
  EXPECT_TRUE(fired);
}

TEST(System, KworkerCanBeDisabled) {
  SystemConfig cfg = small_config(6);
  cfg.kworker_mean_period = 0;
  System system(cfg);
  system.run_for(200 * kMillisecond);
  EXPECT_EQ(system.trace().size(), 20u);
}

TEST(System, EmptyTaskSetStillProducesMaps) {
  // A bare kernel (no application tasks): the tick, idle loop and kworker
  // still touch kernel .text, so MHMs keep flowing — the monitoring plane
  // must not depend on application activity.
  SystemConfig cfg = small_config(9);
  cfg.tasks.clear();
  System system(cfg);
  system.run_for(300 * kMillisecond);
  EXPECT_EQ(system.trace().size(), 30u);
  for (const auto& m : system.trace()) {
    EXPECT_GT(m.total_accesses(), 0u);
  }
  EXPECT_EQ(system.scheduler().stats().jobs_released, 0u);
  EXPECT_EQ(system.scheduler().stats().busy_time, 0u);
}

TEST(System, IdleOnlySystemMapsAreHighlyRegular) {
  // With nothing but periodic kernel housekeeping, same-phase maps should
  // be nearly identical — the degenerate base case of the MHM idea.
  SystemConfig cfg = small_config(10);
  cfg.tasks.clear();
  cfg.kworker_mean_period = 0;
  System system(cfg);
  system.run_for(500 * kMillisecond);
  const auto& trace = system.trace();
  for (std::size_t i = 11; i < 40; ++i) {
    EXPECT_GT(pearson_correlation(trace[i].as_vector(),
                                  trace[i - 1].as_vector()),
              0.99)
        << "interval " << i;
  }
}

TEST(System, RegistryCountersMatchRunTotalsAfterRunFor) {
  // The bus and scheduler flush their counts to the registry in batches;
  // once run_for returns, the registry deltas equal the run's own totals.
  // Kernel paths run after the last run_for are flushed on destruction.
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  obs::Registry& reg = obs::Registry::instance();
  const char* names[] = {"hw.bus.bursts", "sim.sched.preemptions",
                         "sim.sched.deadline_misses", "sim.sched.jobs_released",
                         "sim.sched.jobs_completed", "sim.sched.syscalls"};
  std::uint64_t before[6];
  for (int i = 0; i < 6; ++i) before[i] = reg.counter(names[i]).value();
  auto totals = [](const System& system) {
    const SchedulerStats& st = system.scheduler().stats();
    return std::array<std::uint64_t, 6>{
        system.bus().bursts_published(), st.context_switches,
        st.deadline_misses, st.jobs_released, st.jobs_completed, st.syscalls};
  };
  auto expect_registry = [&](const std::array<std::uint64_t, 6>& expected) {
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(reg.counter(names[i]).value() - before[i], expected[i])
          << names[i];
    }
  };

  std::array<std::uint64_t, 6> expected{};
  {
    System system(small_config(21));
    system.run_for(150 * kMillisecond);
    // Kernel paths invoked between runs count too (fork/execve here).
    system.launch_task(qsort_task_spec());
    system.run_for(150 * kMillisecond);
    expect_registry(totals(system));
    system.scheduler().kill_task(qsort_task_spec().name);
    expected = totals(system);
  }
  expect_registry(expected);
  EXPECT_GT(expected[0], 0u);
  EXPECT_GT(expected[5], 0u);
  obs::set_enabled(obs_was_enabled);
}

// --- Heat-map pins: the simulator's per-interval output, bit for bit. ---
//
// One FNV-1a digest over the interval index and every cell of every map a
// run delivers. Speed-ups of the simulator (sweep rounding, the Memometer
// fold, trace hand-off) must leave these unchanged; a change to the RNG
// stream or the workload model moves them and needs a deliberate re-pin.

std::uint64_t trace_digest(const HeatMapTrace& maps) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const HeatMap& m : maps) {
    mix(&m.interval_index, sizeof m.interval_index);
    mix(m.counts().data(), m.counts().size() * sizeof(std::uint32_t));
  }
  return h;
}

constexpr std::size_t kPinIntervals = 120;

/// Runs `cfg` for kPinIntervals intervals, with `attack` (if named)
/// triggering at interval 40, and digests the delivered maps.
std::uint64_t pinned_run(const SystemConfig& cfg,
                         const std::string& attack = "") {
  System system(cfg);
  std::unique_ptr<attacks::AttackScenario> scenario;
  if (!attack.empty()) {
    scenario = attacks::make_scenario(attack);
    scenario->arm(system, 40 * cfg.monitor.interval);
  }
  system.run_for(kPinIntervals * cfg.monitor.interval);
  EXPECT_EQ(system.trace().size(), kPinIntervals);
  return trace_digest(system.trace());
}

TEST(SystemHeatMapPin, PaperDefaultStreams) {
  const SystemConfig cfg = SystemConfig::paper_default(11);
  EXPECT_EQ(pinned_run(cfg), 0xf866710bece184e2ULL);
  EXPECT_EQ(pinned_run(cfg, "app_addition"), 0xe3a17a6afbcf976dULL);
  EXPECT_EQ(pinned_run(cfg, "shellcode"), 0xe2dc20fc92cccc12ULL);
  EXPECT_EQ(pinned_run(cfg, "rootkit"), 0x5de09ca22fdbe7b9ULL);
}

TEST(SystemHeatMapPin, JitterScales) {
  SystemConfig rtos = SystemConfig::paper_default(12);
  rtos.jitter_scale = 0.0;
  EXPECT_EQ(pinned_run(rtos), 0x7961c0772fdef632ULL);

  // The drift mode perfbench and the retrain tests switch into.
  SystemConfig drift = SystemConfig::paper_default(12);
  drift.jitter_scale = 1.25;
  drift.device_irq_mean_period = 2 * kMillisecond;
  EXPECT_EQ(pinned_run(drift), 0x9968f42be0c2822bULL);

  SystemConfig noisy = SystemConfig::paper_default(12);
  noisy.jitter_scale = 2.0;
  EXPECT_EQ(pinned_run(noisy), 0x76bc0016134ecb51ULL);
}

TEST(SystemHeatMapPin, SnoopPoints) {
  SystemConfig post_l1 = SystemConfig::paper_default(13);
  post_l1.snoop_point = SnoopPoint::PostL1;
  EXPECT_EQ(pinned_run(post_l1), 0xbbf6605681cfb540ULL);

  SystemConfig post_l2 = SystemConfig::paper_default(13);
  post_l2.snoop_point = SnoopPoint::PostL2;
  EXPECT_EQ(pinned_run(post_l2), 0x8121d3a34c3a70c7ULL);
}

TEST(System, NoDeadlineMissesInNormalOperation) {
  System system(small_config(8));
  system.run_for(1 * kSecond);
  EXPECT_EQ(system.scheduler().stats().deadline_misses, 0u);
}

}  // namespace
}  // namespace mhm::sim
