// Continuous profiler: stage scope accumulation, nesting dedup, the counter
// fallback, collapsed-stack shape, the sampling profiler, the determinism
// contract — toggling profiling must not change a verdict bit — and the
// split between traced stages (spans) and the scoring path (none).

#include "obs/prof.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "attacks/attacks.hpp"
#include "common/rng.hpp"
#include "core/pca.hpp"
#include "engine/engine.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
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

/// Burns a little CPU so a scope's wall time is reliably non-zero.
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
  EXPECT_STREQ(stage_info(Stage::kAnalyze).name, "analyze");
  EXPECT_STREQ(stage_info(Stage::kScoreProject).name, "score.project");
  EXPECT_STREQ(stage_info(Stage::kScoreGmm).name, "score.gmm");
  EXPECT_STREQ(stage_info(Stage::kScoreSpe).name, "score.spe");
  EXPECT_STREQ(stage_info(Stage::kScoreObserve).name, "score.observe");
  EXPECT_STREQ(stage_info(Stage::kShardGather).name, "shard.gather");
  EXPECT_STREQ(stage_info(Stage::kShardScatter).name, "shard.scatter");
  EXPECT_STREQ(stage_info(Stage::kTrainCovariance).name, "train.covariance");
  EXPECT_STREQ(stage_info(Stage::kTrainEigensolve).name, "train.eigensolve");
  EXPECT_STREQ(stage_info(Stage::kTrainEm).name, "train.em");
  // Traced stages: these are also the /trace span names.
  EXPECT_STREQ(stage_info(Stage::kPipelineCollect).name,
               "pipeline.collect_normal_trace");
  EXPECT_STREQ(stage_info(Stage::kPipelineTrain).name, "pipeline.train");
  EXPECT_STREQ(stage_info(Stage::kPipelineProfile).name,
               "pipeline.train.profile");
  EXPECT_STREQ(stage_info(Stage::kPipelineFitDetector).name,
               "pipeline.train.fit_detector");
  EXPECT_STREQ(stage_info(Stage::kPcaFit).name, "pca.fit");
  EXPECT_STREQ(stage_info(Stage::kPcaFitTopk).name, "pca.fit_topk");
  EXPECT_STREQ(stage_info(Stage::kPcaProjectAll).name, "pca.project_all");
  EXPECT_STREQ(stage_info(Stage::kGmmRestart).name, "gmm.restart");
}

TEST(ObsScope, FitTopkAddsOneStageEntryAndOneChildSpan) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  reset();
  SpanBuffer& spans = SpanBuffer::instance();
  spans.clear();
  Rng rng(7);
  std::vector<std::vector<double>> rows(40, std::vector<double>(16));
  for (auto& row : rows) {
    for (double& v : row) v = rng.normal();
  }
  Eigenmemory::TopkOptions options;
  options.components = 3;
  std::uint64_t train_id = 0;
  {
    Scope train(Stage::kPipelineTrain);  // OBS_SCOPE(kPipelineTrain), named.
    train_id = train.id();
    (void)Eigenmemory::fit_topk(rows, options);
  }
  ASSERT_NE(train_id, 0u);
  EXPECT_EQ(stage_of(snapshot_stages(), "pca.fit_topk").entries, 1u);
  std::size_t fit_topk_spans = 0;
  for (const SpanRecord& r : spans.snapshot()) {
    if (std::string(r.name) != "pca.fit_topk") continue;
    ++fit_topk_spans;
    EXPECT_EQ(r.parent_id, train_id);
  }
  EXPECT_EQ(fit_topk_spans, 1u);
  spans.clear();
  reset();
}

TEST(ProfZones, AccumulateEntriesAndWallTime) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  reset();
  for (int i = 0; i < 4; ++i) {
    OBS_SCOPE(kScoreProject);
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
    OBS_SCOPE(kAnalyze);
    {
      // The shard serial fallback: analyze_shard's umbrella wraps per-
      // session analyze calls that each open their own kAnalyze scope.
      OBS_SCOPE(kAnalyze);
      spin();
    }
    {
      OBS_SCOPE(kAnalyze);
      spin();
    }
  }
  const StageSnapshot analyze = stage_of(snapshot_stages(), "analyze");
  EXPECT_EQ(analyze.entries, 1u) << "inner scopes must not double-count";
  reset();
}

TEST(ProfZones, DisabledProfilingRecordsNothing) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  reset();
  set_prof_enabled(false);
  {
    OBS_SCOPE(kScoreGmm);
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
        OBS_SCOPE(kScoreSpe);
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
    OBS_SCOPE(kAnalyze);
    {
      OBS_SCOPE(kScoreProject);
      spin();
    }
    {
      OBS_SCOPE(kScoreGmm);
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
    OBS_SCOPE(kAnalyze);
    OBS_SCOPE(kScoreProject);
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
  // The accumulator-derived fallback chains stages under their umbrella.
  EXPECT_NE(collapsed.find("analyze;score.project "), std::string::npos)
      << collapsed;
  reset();
}

TEST(ProfExport, DumpSectionListsActiveStages) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  reset();
  {
    OBS_SCOPE(kScoreGmm);
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
    OBS_SCOPE(kScoreProject);
    spin(5'000);
    if (sampler_samples() > 0) break;
  }
  stop_sampler();
  stop_sampler();
  EXPECT_GT(sampler_samples(), 0u)
      << "a ~1 kHz sampler must catch a busy scope within 500 ms";
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

/// The same trained pipeline, for the scoring-path scope contract.
class ObsScopeTest : public ProfDeterminismTest {};

TEST_F(ObsScopeTest, ScoringPathRecordsNoSpans) {
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  ProfGuard guard;
  const engine::DetectionEngine engine = pipe_->make_engine();
  // One alarm-free training map, scored over and over.
  HeatMap quiet;
  {
    engine::Session probe = engine.new_session();
    bool found = false;
    for (const HeatMap& m : pipe_->training) {
      if (!probe.analyze(m).anomalous) {
        quiet = m;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found);
  }
  engine::Session session = engine.new_session();
  std::vector<engine::Session> lanes;
  lanes.reserve(4);
  for (int b = 0; b < 4; ++b) lanes.push_back(engine.new_session());
  std::vector<engine::Session*> batch;
  for (engine::Session& lane : lanes) batch.push_back(&lane);
  const std::vector<double> row = quiet.as_vector();
  const std::vector<std::span<const double>> raws(batch.size(), row);
  std::vector<std::uint64_t> idx(batch.size(), 0);
  engine::ShardWorkspace ws;
  std::uint64_t next = 0;
  const auto analyze_once = [&] {
    quiet.interval_index = next++;
    ASSERT_FALSE(session.analyze(quiet).anomalous);
  };
  for (int i = 0; i < 16; ++i) analyze_once();  // Warm-up.
  engine.analyze_shard(batch, raws, idx, ws);

  const std::uint64_t spans_before = SpanBuffer::instance().total_recorded();
  const std::uint64_t analyze_before =
      stage_of(snapshot_stages(), "analyze").entries;
  for (int i = 0; i < 500; ++i) analyze_once();
  std::fill(idx.begin(), idx.end(), 1);
  engine.analyze_shard(batch, raws, idx, ws);
  EXPECT_EQ(SpanBuffer::instance().total_recorded(), spans_before);
  EXPECT_EQ(stage_of(snapshot_stages(), "analyze").entries,
            analyze_before + 501);
}

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
