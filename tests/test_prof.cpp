// Continuous profiler: stage zone accumulation, nesting dedup, the counter
// fallback, collapsed-stack shape, the sampling profiler, and the
// determinism contract — toggling profiling must not change a verdict bit.

#include "obs/prof.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "attacks/attacks.hpp"
#include "obs/obs.hpp"
#include "pipeline/experiment.hpp"

namespace mhm::obs::prof {
namespace {

/// Enables obs + profiling for the test body and restores both after.
class ProfGuard {
 public:
  ProfGuard() : obs_was_(obs::enabled()), prof_was_(prof_enabled()) {
    obs::set_enabled(true);
    set_prof_enabled(true);
  }
  ~ProfGuard() {
    set_prof_enabled(prof_was_);
    obs::set_enabled(obs_was_);
  }

 private:
  bool obs_was_;
  bool prof_was_;
};

/// Burns a little CPU so a zone's wall time is reliably non-zero.
std::uint64_t spin(std::uint64_t iters = 20'000) {
  volatile std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < iters; ++i) acc = acc + i * i;
  return acc;
}

StageSnapshot stage_of(const std::vector<StageSnapshot>& stages,
                       const std::string& name) {
  for (const auto& s : stages) {
    if (name == s.name) return s;
  }
  ADD_FAILURE() << "stage '" << name << "' missing from snapshot";
  return {};
}

TEST(ProfStages, NamesAreStableExportIdentifiers) {
  EXPECT_STREQ(stage_name(Stage::kAnalyze), "analyze");
  EXPECT_STREQ(stage_name(Stage::kScoreProject), "score.project");
  EXPECT_STREQ(stage_name(Stage::kScoreGmm), "score.gmm");
  EXPECT_STREQ(stage_name(Stage::kScoreSpe), "score.spe");
  EXPECT_STREQ(stage_name(Stage::kScoreObserve), "score.observe");
  EXPECT_STREQ(stage_name(Stage::kShardGather), "shard.gather");
  EXPECT_STREQ(stage_name(Stage::kShardScatter), "shard.scatter");
  EXPECT_STREQ(stage_name(Stage::kTrainCovariance), "train.covariance");
  EXPECT_STREQ(stage_name(Stage::kTrainEigensolve), "train.eigensolve");
  EXPECT_STREQ(stage_name(Stage::kTrainEm), "train.em");
}

TEST(ProfZones, AccumulateEntriesAndWallTime) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  reset();
  for (int i = 0; i < 4; ++i) {
    PROF_ZONE(kScoreProject);
    spin();
  }
  const auto stages = snapshot_stages();
  ASSERT_EQ(stages.size(), kStageCount);
  const StageSnapshot project = stage_of(stages, "score.project");
  EXPECT_EQ(project.entries, 4u);
  EXPECT_GT(project.wall_ns, 0u);
  // Counters ride every one of the first few entries, whichever source.
  EXPECT_GT(project.counter_samples, 0u);
  // Untouched stages stay zero.
  EXPECT_EQ(stage_of(stages, "train.em").entries, 0u);
  reset();
  EXPECT_EQ(stage_of(snapshot_stages(), "score.project").entries, 0u);
}

TEST(ProfZones, NestedSameStageRecordsOnlyOutermost) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  reset();
  {
    PROF_ZONE(kAnalyze);
    {
      // The shard serial fallback: analyze_shard's umbrella wraps per-
      // session analyze calls that each open their own kAnalyze zone.
      PROF_ZONE(kAnalyze);
      spin();
    }
    {
      PROF_ZONE(kAnalyze);
      spin();
    }
  }
  const StageSnapshot analyze = stage_of(snapshot_stages(), "analyze");
  EXPECT_EQ(analyze.entries, 1u) << "inner zones must not double-count";
  reset();
}

TEST(ProfZones, DisabledProfilingRecordsNothing) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  reset();
  set_prof_enabled(false);
  {
    PROF_ZONE(kScoreGmm);
    spin();
  }
  EXPECT_EQ(stage_of(snapshot_stages(), "score.gmm").entries, 0u);
  set_prof_enabled(true);
}

TEST(ProfZones, ConcurrentZonesFoldAcrossThreadShards) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  reset();
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kEntriesPerThread = 500;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::uint64_t i = 0; i < kEntriesPerThread; ++i) {
        PROF_ZONE(kScoreSpe);
        spin(50);
      }
    });
  }
  for (auto& t : threads) t.join();
  const StageSnapshot spe = stage_of(snapshot_stages(), "score.spe");
  EXPECT_EQ(spe.entries, kThreads * kEntriesPerThread);
  EXPECT_GT(spe.wall_ns, 0u);
  reset();
}

TEST(ProfCounters, SourceIsStableAndNamed) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  const std::string source = counter_source();
  // Probed once; the answer must be one of the two real sources and must
  // not flip between calls. (MHM_PROF_NO_PERF=1 forces "thread_cputime" —
  // the CI smoke job asserts that on a fresh process.)
  EXPECT_TRUE(source == "perf_event" || source == "thread_cputime")
      << source;
  EXPECT_EQ(source, counter_source());
}

TEST(ProfCounters, ThreadWorkCounterIsMonotone) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  const std::uint64_t w0 = thread_work_counter();
  spin(200'000);
  const std::uint64_t w1 = thread_work_counter();
  EXPECT_GE(w1, w0);
  EXPECT_GT(w1, 0u) << "counter must advance while profiling is enabled";
}

TEST(ProfExport, ProfileJsonCarriesStagesAndAttribution) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  reset();
  {
    PROF_ZONE(kAnalyze);
    {
      PROF_ZONE(kScoreProject);
      spin();
    }
    {
      PROF_ZONE(kScoreGmm);
      spin();
    }
  }
  const std::string json = profile_json();
  EXPECT_NE(json.find("\"source\":"), std::string::npos);
  EXPECT_NE(json.find("\"sampler\":"), std::string::npos);
  EXPECT_NE(json.find("\"analyze_wall_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"attributed_fraction\":"), std::string::npos);
  EXPECT_NE(json.find("\"top_scoring_stage\":\"score."), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"score.project\""), std::string::npos);
  EXPECT_NE(json.find("\"ipc\":"), std::string::npos);
  EXPECT_NE(json.find("\"cache_misses\":"), std::string::npos);
  reset();
}

TEST(ProfExport, CollapsedStacksAreFlamegraphLoadable) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  reset();
  {
    PROF_ZONE(kAnalyze);
    PROF_ZONE(kScoreProject);
    spin(2'000'000);  // ≥1 µs so the microsecond weight is non-zero.
  }
  const std::string collapsed = collapsed_stacks();
  ASSERT_FALSE(collapsed.empty());
  // Every line must be "frame(;frame)* <count>" — the flamegraph.pl /
  // speedscope collapsed grammar.
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < collapsed.size()) {
    std::size_t end = collapsed.find('\n', start);
    if (end == std::string::npos) end = collapsed.size();
    const std::string line = collapsed.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    ++lines;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    for (std::size_t i = space + 1; i < line.size(); ++i) {
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(line[i]))) << line;
    }
    EXPECT_NE(line[0], ';') << line;
    EXPECT_NE(line[space - 1], ';') << line;
  }
  EXPECT_GT(lines, 0u);
  // The zone-derived fallback chains stages under their umbrella.
  EXPECT_NE(collapsed.find("analyze;score.project "), std::string::npos)
      << collapsed;
  reset();
}

TEST(ProfExport, DumpSectionListsActiveStages) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  reset();
  {
    PROF_ZONE(kScoreGmm);
    spin();
  }
  const std::string section = dump_section();
  EXPECT_NE(section.find("score.gmm"), std::string::npos) << section;
  reset();
}

TEST(ProfSampler, StartStopIsIdempotentAndCollectsStacks) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  reset();
  start_sampler(997.0);  // Prime and fast, so the test stays short.
  start_sampler(997.0);  // Second start is a no-op, not a second thread.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (std::chrono::steady_clock::now() < deadline) {
    PROF_ZONE(kScoreProject);
    spin(5'000);
    if (sampler_samples() > 0) break;
  }
  stop_sampler();
  stop_sampler();
  EXPECT_GT(sampler_samples(), 0u)
      << "a ~1 kHz sampler must catch a busy zone within 500 ms";
  reset();
}

/// Shares one trained fast pipeline across the determinism tests.
class ProfDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipe_ = new pipeline::TrainedPipeline(pipeline::train_pipeline(
        pipeline::fast_test_config(), pipeline::fast_test_plan(),
        pipeline::fast_test_detector_options()));
  }
  static void TearDownTestSuite() {
    delete pipe_;
    pipe_ = nullptr;
  }

  static pipeline::TrainedPipeline* pipe_;
};

pipeline::TrainedPipeline* ProfDeterminismTest::pipe_ = nullptr;

TEST_F(ProfDeterminismTest, VerdictsAreBitIdenticalWithProfilingToggled) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  attacks::ShellcodeAttack attack("bitcount");
  const engine::DetectionEngine engine = pipe_->make_engine();
  set_prof_enabled(true);
  engine::Session on_session = engine.new_session();
  const pipeline::ScenarioRun on = pipeline::run_scenario(
      pipeline::fast_test_config(), &attack, 1 * kSecond, 2 * kSecond,
      &on_session, 42);
  set_prof_enabled(false);
  engine::Session off_session = engine.new_session();
  const pipeline::ScenarioRun off = pipeline::run_scenario(
      pipeline::fast_test_config(), &attack, 1 * kSecond, 2 * kSecond,
      &off_session, 42);
  ASSERT_EQ(on.verdicts.size(), off.verdicts.size());
  ASSERT_FALSE(on.verdicts.empty());
  for (std::size_t i = 0; i < on.verdicts.size(); ++i) {
    EXPECT_EQ(on.verdicts[i].log10_density, off.verdicts[i].log10_density);
    EXPECT_EQ(on.verdicts[i].spe, off.verdicts[i].spe);
    EXPECT_EQ(on.verdicts[i].anomalous, off.verdicts[i].anomalous);
    EXPECT_EQ(on.verdicts[i].nearest_pattern, off.verdicts[i].nearest_pattern);
  }
}

}  // namespace
}  // namespace mhm::obs::prof
