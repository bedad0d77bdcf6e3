// Engine-layer tests: interval sources, sessions, the model registry,
// concurrent streams and hot model swaps. The Golden* tests pin the exact
// (bit-level) verdict stream of the fast test pipeline as captured before
// the engine refactor — run_scenario()'s move onto SimIntervalSource and
// onto a caller-owned Session must not change a single bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "attacks/attacks.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/model_io.hpp"
#include "core/snapshot.hpp"
#include "core/trace_io.hpp"
#include "engine/engine.hpp"
#include "engine/sim_source.hpp"
#include "engine/source.hpp"
#include "obs/export.hpp"
#include "obs/history.hpp"
#include "obs/incident.hpp"
#include "obs/model_health.hpp"
#include "obs/obs.hpp"
#include "pipeline/experiment.hpp"

namespace mhm {
namespace {

HeatMapTrace synthetic_maps(std::size_t n, std::uint64_t seed,
                            std::size_t cells = 16) {
  Rng rng(seed);
  HeatMapTrace maps;
  for (std::uint64_t i = 0; i < n; ++i) {
    HeatMap m(cells);
    for (std::size_t c = 0; c < cells; ++c) {
      m.increment(c, rng.poisson(40.0 + 12.0 * static_cast<double>(c % 4)));
    }
    m.interval_index = i;
    maps.push_back(std::move(m));
  }
  return maps;
}

/// Bit-level verdict comparison with hexfloat diagnostics: a one-ulp drift
/// in the batch path must fail loudly with the exact bits on both sides.
std::string hexf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return std::string(buf);
}

::testing::AssertionResult verdict_bits_match(const Verdict& got,
                                              const Verdict& want) {
  if (std::memcmp(&got.log10_density, &want.log10_density, 8) != 0) {
    return ::testing::AssertionFailure()
           << "log10_density " << hexf(got.log10_density) << " != "
           << hexf(want.log10_density);
  }
  if (std::memcmp(&got.spe, &want.spe, 8) != 0) {
    return ::testing::AssertionFailure()
           << "spe " << hexf(got.spe) << " != " << hexf(want.spe);
  }
  if (got.nearest_pattern != want.nearest_pattern) {
    return ::testing::AssertionFailure()
           << "nearest_pattern " << got.nearest_pattern << " != "
           << want.nearest_pattern;
  }
  if (got.model_version != want.model_version) {
    return ::testing::AssertionFailure() << "model_version "
                                         << got.model_version << " != "
                                         << want.model_version;
  }
  if (got.anomalous != want.anomalous) {
    return ::testing::AssertionFailure()
           << "anomalous " << got.anomalous << " != " << want.anomalous;
  }
  return ::testing::AssertionSuccess();
}

AnomalyDetector::Options tiny_options(std::size_t pca_components = 4) {
  AnomalyDetector::Options opts;
  opts.pca.components = pca_components;
  opts.gmm.components = 2;
  opts.gmm.restarts = 2;
  return opts;
}

// Must run before anything in this binary opens a session with the default
// 10-phase journal: the phase metric handles are registered under the
// session's final phase count only — never under a default count first,
// which would leave stale phase-5..9 gauges in the registry.
TEST(StreamObserverHygiene, PhaseHandlesRegisteredOnlyUnderFinalCount) {
  const HeatMapTrace train = synthetic_maps(120, 1);
  const HeatMapTrace valid = synthetic_maps(60, 2);
  const AnomalyDetector detector =
      AnomalyDetector::train(train, valid, tiny_options());
  engine::SessionOptions so;
  so.phases = 3;
  const engine::Session session =
      engine::DetectionEngine(detector.snapshot()).new_session(so);

  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("mhm_detector_intervals_by_phase_2"), std::string::npos);
  EXPECT_EQ(text.find("mhm_detector_intervals_by_phase_3"), std::string::npos);
  EXPECT_EQ(text.find("mhm_detector_intervals_by_phase_5"), std::string::npos);
  EXPECT_EQ(text.find("mhm_detector_intervals_by_phase_9"), std::string::npos);
}

TEST(SourceTest, VectorSourceIteratesInOrderAndRewinds) {
  engine::VectorSource source(synthetic_maps(5, 3));
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t i = 0; i < 5; ++i) {
      auto item = source.next();
      ASSERT_TRUE(item.has_value());
      EXPECT_EQ(item->interval_index, i);
      EXPECT_EQ(item->map.interval_index, i);
    }
    EXPECT_FALSE(source.next().has_value());
    EXPECT_FALSE(source.next().has_value());  // Stays exhausted.
    source.rewind();
  }
}

TEST(SourceTest, TraceReplaySourceRoundTripsThroughFile) {
  RecordedTrace trace;
  trace.config.granularity = 2048;
  trace.config.size = 16 * 2048;
  trace.maps = synthetic_maps(7, 4);
  const std::string path =
      (std::filesystem::temp_directory_path() / "mhm_engine_trace.mhmt")
          .string();
  save_trace_file(trace, path);

  engine::TraceReplaySource source = engine::TraceReplaySource::from_file(path);
  EXPECT_EQ(source.size(), 7u);
  EXPECT_EQ(source.config().granularity, trace.config.granularity);
  std::size_t n = 0;
  while (auto item = source.next()) {
    EXPECT_EQ(item->map.counts(), trace.maps[n].counts());
    EXPECT_EQ(item->interval_index, trace.maps[n].interval_index);
    ++n;
  }
  EXPECT_EQ(n, 7u);
  std::filesystem::remove(path);
}

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mhm_registry_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static DetectorModel tiny_model(std::size_t pca_components = 4) {
    const HeatMapTrace train = synthetic_maps(120, 11);
    const HeatMapTrace valid = synthetic_maps(60, 12);
    return DetectorModel::from_snapshot(
        *AnomalyDetector::train(train, valid, tiny_options(pca_components))
             .snapshot());
  }

  std::string dir_;
};

TEST_F(RegistryTest, SaveAssignsMonotonicVersionsAndLists) {
  ModelRegistry registry(dir_);
  EXPECT_FALSE(registry.latest_version().has_value());
  EXPECT_TRUE(registry.list().empty());
  EXPECT_THROW(registry.load_latest(), SerializationError);

  const DetectorModel model = tiny_model();
  EXPECT_EQ(registry.save(model), 1u);
  EXPECT_EQ(registry.save(model), 2u);
  EXPECT_EQ(registry.save(model), 3u);
  EXPECT_EQ(registry.list(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(registry.latest_version().value(), 3u);

  // A second handle to the same directory continues the sequence.
  ModelRegistry reopened(dir_);
  EXPECT_EQ(reopened.save(model), 4u);

  // Snapshots are stamped with the version they were loaded under.
  EXPECT_EQ(registry.load_snapshot(2)->version, 2u);
  EXPECT_EQ(registry.load_latest_snapshot()->version, 4u);
}

TEST_F(RegistryTest, LoadMissingVersionThrows) {
  ModelRegistry registry(dir_);
  registry.save(tiny_model());
  EXPECT_THROW(registry.load(7), SerializationError);
}

TEST_F(RegistryTest, LoadRejectsPcaGmmDimensionMismatch) {
  ModelRegistry registry(dir_);
  // A poisoned artifact: the eigenmemory of a 4-component model with the
  // GMM of a 3-component one. The file itself is well-formed, so only the
  // cross-section validation can catch it.
  DetectorModel franken = tiny_model(4);
  franken.gmm = tiny_model(3).gmm;
  save_model_file(franken, registry.path_for(1));
  EXPECT_THROW(registry.load(1), SerializationError);
  EXPECT_THROW(registry.load_latest(), SerializationError);
}

TEST_F(RegistryTest, ConstructorRejectsFilePath) {
  const std::string file =
      (std::filesystem::temp_directory_path() / "mhm_registry_not_a_dir")
          .string();
  std::filesystem::remove_all(file);
  save_model_file(tiny_model(), file);
  EXPECT_THROW(ModelRegistry{file}, ConfigError);
  std::filesystem::remove(file);
}

/// Shares one trained fast pipeline (and one scored attack run) across the
/// engine tests, mirroring IntegrationTest.
class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipe_ = new pipeline::TrainedPipeline(pipeline::train_pipeline(
        pipeline::fast_test_config(), pipeline::fast_test_plan(),
        pipeline::fast_test_detector_options()));
    attacks::ShellcodeAttack attack("bitcount");
    engine::Session session = pipe_->make_engine().new_session();
    attacked_ = new pipeline::ScenarioRun(pipeline::run_scenario(
        pipeline::fast_test_config(), &attack, 1 * kSecond, 2 * kSecond,
        &session, 42));
  }
  static void TearDownTestSuite() {
    delete attacked_;
    attacked_ = nullptr;
    delete pipe_;
    pipe_ = nullptr;
  }

  static void expect_same_verdicts(const std::vector<Verdict>& a,
                                   const std::vector<Verdict>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].interval_index, b[i].interval_index);
      EXPECT_EQ(a[i].log10_density, b[i].log10_density);  // Bit-identical.
      EXPECT_EQ(a[i].anomalous, b[i].anomalous);
      EXPECT_EQ(a[i].nearest_pattern, b[i].nearest_pattern);
      EXPECT_EQ(a[i].spe, b[i].spe);
    }
  }

  static pipeline::TrainedPipeline* pipe_;
  static pipeline::ScenarioRun* attacked_;
};

pipeline::TrainedPipeline* EngineTest::pipe_ = nullptr;
pipeline::ScenarioRun* EngineTest::attacked_ = nullptr;

// --- Golden pins: values captured from the pre-engine implementation. ---

TEST_F(EngineTest, GoldenThresholdsMatchPreRefactorCapture) {
  EXPECT_EQ(pipe_->theta_05.log10_value, -0x1.ff2e99ec8882p+4);
  EXPECT_EQ(pipe_->theta_1.log10_value, -0x1.f4dd11fabd412p+4);
}

struct GoldenScenario {
  std::size_t n;
  std::size_t alarms;
  double sum;
  double first;
  double last;
  double mid;
};

void expect_golden(const pipeline::ScenarioRun& run,
                   const GoldenScenario& golden) {
  ASSERT_EQ(run.verdicts.size(), golden.n);
  double sum = 0.0;
  std::size_t alarms = 0;
  for (const auto& v : run.verdicts) {
    sum += v.log10_density;
    alarms += v.anomalous;
  }
  EXPECT_EQ(alarms, golden.alarms);
  EXPECT_EQ(sum, golden.sum);
  EXPECT_EQ(run.verdicts.front().log10_density, golden.first);
  EXPECT_EQ(run.verdicts.back().log10_density, golden.last);
  EXPECT_EQ(run.verdicts[golden.n / 2].log10_density, golden.mid);
}

TEST_F(EngineTest, GoldenVerdictsNormalRun) {
  engine::Session session = pipe_->make_engine().new_session();
  const pipeline::ScenarioRun run =
      pipeline::run_scenario(pipeline::fast_test_config(), nullptr, 0,
                             2 * kSecond, &session, 4242);
  expect_golden(run, {200, 2, -0x1.4440139b0d984p+12, -0x1.7e9dd29a4e649p+4,
                      -0x1.81cd8eb2a297cp+4, -0x1.689a05903e08dp+4});
}

TEST_F(EngineTest, GoldenVerdictsAppAddition) {
  attacks::AppAdditionAttack attack;
  engine::Session session = pipe_->make_engine().new_session();
  const pipeline::ScenarioRun run = pipeline::run_scenario(
      pipeline::fast_test_config(), &attack, 1 * kSecond, 2 * kSecond,
      &session, 77);
  expect_golden(run, {200, 43, -0x1.b07ea298f786p+12, -0x1.7b9ec63f4d2p+4,
                      -0x1.4d019ba40561fp+6, -0x1.167e132922703p+5});
}

TEST_F(EngineTest, GoldenVerdictsShellcode) {
  expect_golden(*attacked_,
                {200, 25, -0x1.dd5a622dbadcep+12, -0x1.7d1bb1542804cp+4,
                 -0x1.967c9d4dd7832p+4, -0x1.ecf050e44ded2p+4});
}

// --- Sources against the live simulator. ---

TEST_F(EngineTest, SimSourceYieldsExactlyTheSystemTrace) {
  const sim::SystemConfig cfg = pipeline::fast_test_config(9);
  HeatMapTrace pulled;
  {
    sim::System system(cfg);
    engine::SimIntervalSource source(system, 500 * kMillisecond);
    while (auto item = source.next()) pulled.push_back(std::move(item->map));
    EXPECT_EQ(source.remaining(), 0u);
    EXPECT_TRUE(system.trace().empty());  // drained by move, not copied
  }
  sim::System reference(cfg);
  reference.run_for(500 * kMillisecond);
  const HeatMapTrace& expected = reference.trace();

  ASSERT_EQ(pulled.size(), expected.size());
  ASSERT_FALSE(pulled.empty());
  for (std::size_t i = 0; i < pulled.size(); ++i) {
    EXPECT_EQ(pulled[i].interval_index, expected[i].interval_index);
    EXPECT_EQ(pulled[i].counts(), expected[i].counts());
  }
}

// --- Sessions. ---

// Replaying the recorded maps through a fresh session reproduces the
// verdicts run_scenario() scored inline while simulating.
TEST_F(EngineTest, SessionMatchesFacadeBitIdentically) {
  const engine::DetectionEngine engine = pipe_->make_engine();
  engine::Session session = engine.new_session();
  engine::VectorSource source(attacked_->maps);
  const std::vector<Verdict> verdicts = session.run(source);
  expect_same_verdicts(verdicts, attacked_->verdicts);
  EXPECT_TRUE(session.transitions().empty());
}

TEST_F(EngineTest, RegistryRoundTripReassemblesBitIdenticalVerdicts) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mhm_registry_roundtrip")
          .string();
  std::filesystem::remove_all(dir);
  ModelRegistry registry(dir);
  registry.save(DetectorModel::from_snapshot(*pipe_->det().snapshot()));

  const auto snapshot = registry.load_latest_snapshot();
  // The serialized model carries no raw training maps, so the reassembled
  // snapshot has no CellBaseline: journal alarms on this session simply
  // skip the per-cell explanation. Scores are unaffected.
  EXPECT_EQ(snapshot->baseline, nullptr);
  EXPECT_EQ(snapshot->version, 1u);

  const engine::DetectionEngine engine(snapshot);
  engine::Session session = engine.new_session();
  engine::VectorSource source(attacked_->maps);
  const std::vector<Verdict> verdicts = session.run(source);
  expect_same_verdicts(verdicts, attacked_->verdicts);
  for (const auto& v : verdicts) EXPECT_EQ(v.model_version, 1u);

  std::filesystem::remove_all(dir);
}

TEST_F(EngineTest, ConcurrentSessionsBitIdenticalToSerial) {
  const engine::DetectionEngine engine = pipe_->make_engine();
  engine::Session serial = engine.new_session();
  engine::VectorSource serial_source(attacked_->maps);
  const std::vector<Verdict> expected = serial.run(serial_source);

  constexpr std::size_t kStreams = 4;
  std::vector<std::vector<Verdict>> per_stream(kStreams);
  {
    // Sources are single-consumer, so each parallel stream replays its own
    // source over the same recorded trace.
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kStreams; ++t) {
      threads.emplace_back([&, t] {
        engine::Session session = engine.new_session();
        engine::TraceReplaySource source(attacked_->maps);
        per_stream[t] = session.run(source);
      });
    }
    for (auto& th : threads) th.join();
  }
  for (const auto& verdicts : per_stream) {
    expect_same_verdicts(verdicts, expected);
  }
}

// The HeatMap entry point scores straight from the counts: verdict bits
// equal scoring the as_vector() row, and the row it leaves in scratch.raw
// is that row.
TEST_F(EngineTest, ScoreFromCountsMatchesDoubleRowBitForBit) {
  const ModelSnapshot& model = *pipe_->det().snapshot();
  ScoreScratch from_counts;
  ScoreScratch from_row;
  for (const HeatMap& map : attacked_->maps) {
    const std::vector<double> row = map.as_vector();
    const Verdict got = score_snapshot(model, map, from_counts);
    const Verdict want =
        score_snapshot(model, row, map.interval_index, from_row);
    EXPECT_EQ(got.interval_index, map.interval_index);
    EXPECT_TRUE(verdict_bits_match(got, want))
        << "interval " << map.interval_index;
    EXPECT_EQ(from_counts.raw, row) << "interval " << map.interval_index;
    EXPECT_EQ(from_counts.reduced, from_row.reduced);
  }
}

// --- Batched SoA scoring: property + golden bit-identity pins. ---

// Property: for every swept batch size, score_snapshot_batch over a
// shuffled composition of pool maps reproduces the serial score_snapshot
// verdicts bit-for-bit — at thread count 1 and with the composition split
// across 4 concurrent scorers (each with its own ScoreBatch + scratch).
TEST_F(EngineTest, PropertyBatchScoringBitIdenticalAcrossSizesAndThreads) {
  const ModelSnapshot& model = *pipe_->det().snapshot();
  std::vector<std::vector<double>> pool;
  pool.reserve(attacked_->maps.size());
  for (const auto& m : attacked_->maps) pool.push_back(m.as_vector());

  // Serial reference, one verdict per pool map (scoring is stateless per
  // interval, so any composition can be checked against this table).
  ScoreScratch serial_scratch;
  std::vector<Verdict> ref;
  ref.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ref.push_back(score_snapshot(model, pool[i],
                                 attacked_->maps[i].interval_index,
                                 serial_scratch));
  }

  Rng rng(0xB175);
  for (const std::size_t bsize : {1u, 2u, 3u, 64u, 1000u}) {
    // Shuffled composition with replacement: exercises repeated maps inside
    // one batch and every ragged-tile width.
    std::vector<std::size_t> comp(bsize);
    for (auto& c : comp) {
      c = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    }
    std::shuffle(comp.begin(), comp.end(), rng);

    for (const std::size_t nthreads : {1u, 4u}) {
      std::vector<std::string> failures(nthreads);
      std::vector<std::thread> workers;
      for (std::size_t t = 0; t < nthreads; ++t) {
        workers.emplace_back([&, t] {
          const std::size_t lo = bsize * t / nthreads;
          const std::size_t hi = bsize * (t + 1) / nthreads;
          if (lo == hi) return;
          ScoreBatch batch;
          BatchScoreScratch scratch;
          batch.clear(model.pca.input_dim());
          for (std::size_t x = lo; x < hi; ++x) {
            batch.push(pool[comp[x]], attacked_->maps[comp[x]].interval_index);
          }
          score_snapshot_batch(model, batch, scratch);
          for (std::size_t b = 0; b < batch.size(); ++b) {
            const auto result =
                verdict_bits_match(batch.verdict(b), ref[comp[lo + b]]);
            if (!result) {
              failures[t] = "batch=" + std::to_string(bsize) + " threads=" +
                            std::to_string(nthreads) + " lane=" +
                            std::to_string(lo + b) + ": " + result.message();
              return;
            }
          }
        });
      }
      for (auto& w : workers) w.join();
      for (const auto& f : failures) EXPECT_TRUE(f.empty()) << f;
    }
  }
}

// Property: analyze_shard over shuffled shard compositions (each session
// handed an arbitrary pool map per round) scatters verdicts bit-identical
// to the serial per-session analyze() stream, at every swept shard size.
TEST_F(EngineTest, PropertyShardCompositionsReproduceSerialVerdicts) {
  const engine::DetectionEngine engine = pipe_->make_engine();
  std::vector<std::vector<double>> rows;
  rows.reserve(attacked_->maps.size());
  for (const auto& m : attacked_->maps) rows.push_back(m.as_vector());

  engine::SessionOptions light;
  light.journal_capacity = 16;
  light.top_cells = 2;

  // Serial reference: one session over the whole trace.
  engine::Session serial = engine.new_session(light);
  std::vector<Verdict> ref;
  ref.reserve(attacked_->maps.size());
  for (const auto& m : attacked_->maps) ref.push_back(serial.analyze(m));

  Rng rng(0x51A2D);
  for (const std::size_t shard_size : {1u, 2u, 3u, 64u, 1000u}) {
    std::vector<engine::Session> sessions;
    sessions.reserve(shard_size);
    std::vector<engine::Session*> ptrs;
    ptrs.reserve(shard_size);
    for (std::size_t s = 0; s < shard_size; ++s) {
      sessions.push_back(engine.new_session(light));
      ptrs.push_back(&sessions.back());
    }

    engine::ShardWorkspace ws;
    std::vector<std::span<const double>> raws(shard_size);
    std::vector<std::uint64_t> idx(shard_size);
    std::vector<std::size_t> comp(shard_size);
    for (int round = 0; round < 2; ++round) {
      for (auto& c : comp) {
        c = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1));
      }
      std::shuffle(comp.begin(), comp.end(), rng);
      for (std::size_t s = 0; s < shard_size; ++s) {
        raws[s] = rows[comp[s]];
        idx[s] = attacked_->maps[comp[s]].interval_index;
      }
      std::vector<Verdict> got;
      engine.analyze_shard(ptrs, raws, idx, ws, &got);
      ASSERT_EQ(got.size(), shard_size);
      for (std::size_t s = 0; s < shard_size; ++s) {
        EXPECT_TRUE(verdict_bits_match(got[s], ref[comp[s]]))
            << "shard=" << shard_size << " round=" << round << " lane=" << s;
      }
    }
  }
}

// The /healthz heartbeat is stamped once per scoring call, not per
// session-interval: a shard scored through analyze_shard alone, with no
// Session::analyze, still refreshes it.
TEST_F(EngineTest, AnalyzeShardStampsTheHeartbeat) {
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  const engine::DetectionEngine engine = pipe_->make_engine();
  std::vector<engine::Session> sessions;
  std::vector<engine::Session*> ptrs;
  std::vector<std::vector<double>> rows;
  std::vector<std::span<const double>> raws;
  std::vector<std::uint64_t> idx;
  sessions.reserve(3);
  rows.reserve(3);
  for (std::size_t s = 0; s < 3; ++s) {
    sessions.push_back(
        engine.new_session(engine::SessionOptions::fleet_preset()));
    ptrs.push_back(&sessions.back());
    rows.push_back(attacked_->maps[s].as_vector());
    raws.push_back(rows.back());
    idx.push_back(attacked_->maps[s].interval_index);
  }
  engine::ShardWorkspace ws;
  // Any stamp left by an earlier test in this process is older than this
  // reading; only a stamp taken inside analyze_shard is not.
  const std::uint64_t before = obs::steady_ns();
  engine.analyze_shard(ptrs, raws, idx, ws, nullptr);
  EXPECT_GE(obs::last_analysis_ns(), before);
  EXPECT_GE(obs::last_analysis_age_seconds(), 0.0);
}

// --- Hot model swap. ---

class HotSwapTest : public EngineTest {
 protected:
  void SetUp() override {
    // Per-test-name directory: under `ctest -j` each test runs as its own
    // process, so a shared fixed path races one process's TearDown against
    // another's registry scan.
    dir_ = (std::filesystem::temp_directory_path() /
            ("mhm_registry_swap_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    ModelRegistry registry(dir_);
    registry.save(DetectorModel::from_snapshot(*pipe_->det().snapshot()));
    // Model B: same cell count, different mixture — trained with one fewer
    // GMM component so its densities differ from model A's.
    AnomalyDetector::Options opts = pipeline::fast_test_detector_options();
    opts.gmm.components = 4;
    const AnomalyDetector b =
        AnomalyDetector::train(pipe_->training, pipe_->validation, opts);
    registry.save(DetectorModel::from_snapshot(*b.snapshot()));
    registry_ = std::make_unique<ModelRegistry>(dir_);
  }
  void TearDown() override {
    registry_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::unique_ptr<ModelRegistry> registry_;
};

TEST_F(HotSwapTest, SwapTakesEffectAtNextIntervalBoundary) {
  const auto snap_a = registry_->load_snapshot(1);
  const auto snap_b = registry_->load_snapshot(2);

  // References: whole run under each model (scoring is stateless per
  // interval, so a mid-run swap must match these slices exactly).
  const engine::DetectionEngine engine_a(snap_a);
  const engine::DetectionEngine engine_b(snap_b);
  engine::Session ref_a = engine_a.new_session();
  engine::Session ref_b = engine_b.new_session();
  engine::VectorSource src1(attacked_->maps);
  engine::VectorSource src2(attacked_->maps);
  const std::vector<Verdict> under_a = ref_a.run(src1);
  const std::vector<Verdict> under_b = ref_b.run(src2);
  ASSERT_FALSE(under_a.empty());
  // The models genuinely disagree somewhere (otherwise the test is vacuous).
  bool differ = false;
  for (std::size_t i = 0; i < under_a.size(); ++i) {
    differ |= under_a[i].log10_density != under_b[i].log10_density;
  }
  ASSERT_TRUE(differ);

  engine::DetectionEngine engine(snap_a);
  engine::Session session = engine.new_session();
  EXPECT_EQ(engine.model_version(), 1u);
  const std::size_t half = attacked_->maps.size() / 2;
  std::vector<Verdict> verdicts;
  for (std::size_t i = 0; i < half; ++i) {
    verdicts.push_back(session.analyze(attacked_->maps[i]));
  }
  engine.swap_model(snap_b);
  EXPECT_EQ(engine.model_version(), 2u);
  // No map is dropped: the very next analyze() scores with model B.
  for (std::size_t i = half; i < attacked_->maps.size(); ++i) {
    verdicts.push_back(session.analyze(attacked_->maps[i]));
  }

  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const std::vector<Verdict>& expected = i < half ? under_a : under_b;
    EXPECT_EQ(verdicts[i].model_version, i < half ? 1u : 2u);
    EXPECT_EQ(verdicts[i].log10_density, expected[i].log10_density);
    EXPECT_EQ(verdicts[i].anomalous, expected[i].anomalous);
  }

  ASSERT_EQ(session.transitions().size(), 1u);
  EXPECT_EQ(session.transitions()[0].interval_index,
            attacked_->maps[half].interval_index);
  EXPECT_EQ(session.transitions()[0].from_version, 1u);
  EXPECT_EQ(session.transitions()[0].to_version, 2u);
  EXPECT_EQ(session.model_version(), 2u);
}

// The model-health snapshot keeps no score ring or row copy of its own:
// recent_scores is the session's score-history raw ring and heat_row the
// newest analyzed row. The monitor rebound at a hot swap views the same
// history and recorder, so the sparkline spans the swap.
TEST_F(HotSwapTest, HealthSnapshotViewsHistoryAndNewestRowAcrossSwap) {
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  const std::string incident_dir = dir_ + "_incidents";
  std::filesystem::create_directories(incident_dir);
  obs::IncidentStore::Options store_opts;
  store_opts.dir = incident_dir;
  {
    engine::DetectionEngine engine(registry_->load_snapshot(1));
    engine::Session session = engine.new_session();
    session.attach_incidents(obs::IncidentOptions{},
                             std::make_shared<obs::IncidentStore>(store_opts));
    const HeatMapTrace& maps = attacked_->maps;
    const std::size_t half = maps.size() / 2;
    for (std::size_t i = 0; i < maps.size(); ++i) {
      if (i == half) engine.swap_model(registry_->load_snapshot(2));
      session.analyze(maps[i]);
    }
    const auto health = session.model_health();
    ASSERT_NE(health, nullptr);
    const obs::ModelHealthSnapshot snap = health->snapshot();
    // The rebound monitor's statistics start at the swap...
    EXPECT_EQ(snap.intervals, maps.size() - half);
    // ...while its sparkline is the whole history ring, model 1 included.
    const std::vector<obs::HistorySample> raw =
        session.score_history()->raw_snapshot();
    ASSERT_EQ(snap.recent_scores.size(), raw.size());
    EXPECT_GT(raw.size(), snap.intervals);
    EXPECT_EQ(raw.front().model_version, 1u);
    for (std::size_t i = 0; i < raw.size(); ++i) {
      EXPECT_EQ(snap.recent_scores[i], raw[i].score) << i;
    }
    EXPECT_EQ(snap.last_row_interval, maps.back().interval_index);
    EXPECT_EQ(snap.last_row, maps.back().as_vector());
  }
  std::filesystem::remove_all(incident_dir);
}

TEST_F(HotSwapTest, SwapRejectsNullAndMismatchedSnapshots) {
  engine::DetectionEngine engine(registry_->load_snapshot(1));
  EXPECT_THROW(engine.swap_model(nullptr), ConfigError);

  // A model over a different cell count cannot serve the same streams.
  const HeatMapTrace train = synthetic_maps(120, 21);
  const HeatMapTrace valid = synthetic_maps(60, 22);
  const AnomalyDetector other =
      AnomalyDetector::train(train, valid, tiny_options());
  EXPECT_THROW(engine.swap_model(other.snapshot()), ConfigError);
  EXPECT_EQ(engine.model_version(), 1u);  // Still serving model A.
}

TEST_F(HotSwapTest, ConcurrentSessionsAllPickUpSwapAtBoundary) {
  const auto snap_a = registry_->load_snapshot(1);
  const auto snap_b = registry_->load_snapshot(2);
  const engine::DetectionEngine engine_b(snap_b);
  engine::Session ref_b = engine_b.new_session();
  engine::VectorSource src(attacked_->maps);
  const std::vector<Verdict> under_b = ref_b.run(src);

  engine::DetectionEngine engine(snap_a);
  constexpr std::size_t kStreams = 4;
  const std::size_t half = attacked_->maps.size() / 2;
  // Two rendezvous: all streams finish the first half, then the swap is
  // published, then all streams resume — so every session's pickup boundary
  // is exactly `half`.
  std::barrier sync(kStreams + 1);
  std::vector<std::vector<Verdict>> per_stream(kStreams);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kStreams; ++t) {
    threads.emplace_back([&, t] {
      engine::Session session = engine.new_session();
      for (std::size_t i = 0; i < half; ++i) {
        per_stream[t].push_back(session.analyze(attacked_->maps[i]));
      }
      sync.arrive_and_wait();  // First half done, swap not yet visible.
      sync.arrive_and_wait();  // Swap published.
      for (std::size_t i = half; i < attacked_->maps.size(); ++i) {
        per_stream[t].push_back(session.analyze(attacked_->maps[i]));
      }
      EXPECT_EQ(session.transitions().size(), 1u);
    });
  }
  sync.arrive_and_wait();
  engine.swap_model(snap_b);
  sync.arrive_and_wait();
  for (auto& th : threads) th.join();

  for (const auto& verdicts : per_stream) {
    ASSERT_EQ(verdicts.size(), attacked_->maps.size());
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      EXPECT_EQ(verdicts[i].model_version, i < half ? 1u : 2u);
      if (i >= half) {
        EXPECT_EQ(verdicts[i].log10_density, under_b[i].log10_density);
      }
    }
  }
}

// The shard batch path under a barrier-synchronized mid-stream swap: worker
// threads pump disjoint session groups through analyze_shard, rendezvous at
// the halfway boundary while the swap is published, and resume — every
// session's verdict stream must match the per-model serial references
// bit-for-bit, with the version stamp flipping exactly at the boundary.
// Runs at thread counts 1 and 4 (the 4-thread leg has concurrent
// score_snapshot_batch calls against one shared snapshot).
TEST_F(HotSwapTest, ShardBatchesPickUpBarrierSynchronizedSwapBitIdentically) {
  const auto snap_a = registry_->load_snapshot(1);
  const auto snap_b = registry_->load_snapshot(2);

  // Per-model serial references over the full trace.
  const engine::DetectionEngine engine_a(snap_a);
  const engine::DetectionEngine engine_b(snap_b);
  engine::Session ref_a = engine_a.new_session();
  engine::Session ref_b = engine_b.new_session();
  engine::VectorSource src1(attacked_->maps);
  engine::VectorSource src2(attacked_->maps);
  const std::vector<Verdict> under_a = ref_a.run(src1);
  const std::vector<Verdict> under_b = ref_b.run(src2);

  std::vector<std::vector<double>> rows;
  rows.reserve(attacked_->maps.size());
  for (const auto& m : attacked_->maps) rows.push_back(m.as_vector());
  const std::size_t half = rows.size() / 2;

  for (const std::size_t nthreads : {1u, 4u}) {
    engine::DetectionEngine engine(snap_a);
    constexpr std::size_t kSessions = 8;
    std::vector<engine::Session> sessions;
    sessions.reserve(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions.push_back(engine.new_session());
    }
    std::vector<std::vector<Verdict>> per_session(kSessions);

    std::barrier sync(static_cast<std::ptrdiff_t>(nthreads) + 1);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < nthreads; ++t) {
      threads.emplace_back([&, t] {
        const std::size_t lo = kSessions * t / nthreads;
        const std::size_t hi = kSessions * (t + 1) / nthreads;
        std::vector<engine::Session*> group;
        for (std::size_t s = lo; s < hi; ++s) group.push_back(&sessions[s]);
        engine::ShardWorkspace ws;
        std::vector<std::span<const double>> raws(group.size());
        std::vector<std::uint64_t> idx(group.size());
        std::vector<Verdict> got;
        const auto pump = [&](std::size_t r0, std::size_t r1) {
          for (std::size_t r = r0; r < r1; ++r) {
            for (std::size_t g = 0; g < group.size(); ++g) {
              raws[g] = rows[r];
              idx[g] = attacked_->maps[r].interval_index;
            }
            got.clear();
            engine.analyze_shard(group, raws, idx, ws, &got);
            for (std::size_t g = 0; g < group.size(); ++g) {
              per_session[lo + g].push_back(got[g]);
            }
          }
        };
        pump(0, half);
        sync.arrive_and_wait();  // First half scored, swap not yet visible.
        sync.arrive_and_wait();  // Swap published.
        pump(half, rows.size());
      });
    }
    sync.arrive_and_wait();
    engine.swap_model(snap_b);
    sync.arrive_and_wait();
    for (auto& th : threads) th.join();

    for (std::size_t s = 0; s < kSessions; ++s) {
      ASSERT_EQ(per_session[s].size(), rows.size());
      for (std::size_t i = 0; i < per_session[s].size(); ++i) {
        const Verdict& want = i < half ? under_a[i] : under_b[i];
        EXPECT_TRUE(verdict_bits_match(per_session[s][i], want))
            << "threads=" << nthreads << " session=" << s << " interval="
            << i;
      }
      EXPECT_EQ(sessions[s].transitions().size(), 1u);
    }
  }
}

}  // namespace
}  // namespace mhm
