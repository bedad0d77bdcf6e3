// Continuous-training tests: the NormalWindow clean-interval reservoir, the
// RetrainManager policy state machine (drift-sustain → train → validate →
// publish), hot-swap pickup by live sessions, determinism of the retrain
// artifact across thread counts, and the background worker under concurrent
// scoring load (the TSan target — zero dropped intervals, monotone
// model_version).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/detector.hpp"
#include "core/model_io.hpp"
#include "engine/engine.hpp"
#include "engine/normal_window.hpp"
#include "engine/retrain.hpp"
#include "obs/model_health.hpp"

namespace mhm {
namespace {

using engine::NormalWindow;
using engine::RetrainManager;
using engine::RetrainReport;
using engine::RetrainState;
using obs::ModelHealthStatus;

constexpr std::size_t kCells = 16;

/// Stationary "normal behaviour" rows — same generator family as
/// test_engine's synthetic_maps, as raw vectors.
std::vector<std::vector<double>> normal_rows(std::size_t n,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  rows.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<double> row(kCells);
    for (std::size_t c = 0; c < kCells; ++c) {
      row[c] = static_cast<double>(
          rng.poisson(40.0 + 12.0 * static_cast<double>(c % 4)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

AnomalyDetector::Options tiny_options() {
  AnomalyDetector::Options opts;
  opts.pca.components = 4;
  opts.gmm.components = 2;
  opts.gmm.restarts = 2;
  return opts;
}

/// One tiny trained engine shared per fixture instantiation.
engine::DetectionEngine tiny_engine() {
  const auto train = normal_rows(160, 101);
  const auto valid = normal_rows(80, 102);
  const AnomalyDetector det =
      AnomalyDetector::train(train, valid, tiny_options());
  return engine::DetectionEngine(det.snapshot());
}

RetrainManager::Options inline_options() {
  RetrainManager::Options o;
  o.background = false;
  o.sustain = 8;
  o.cooldown = 16;
  o.min_window = 64;
  o.gmm_restarts = 2;
  return o;
}

std::string test_dir(const char* stem) {
  const std::string name = ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name();
  return (std::filesystem::temp_directory_path() /
          (std::string(stem) + "_" + name))
      .string();
}

std::string report_str(const RetrainReport& r) {
  return "reason=" + r.reason + " rows=" + std::to_string(r.window_rows) +
         " holdout_rate=" + std::to_string(r.holdout_alarm_rate) +
         " wilson=[" + std::to_string(r.wilson_low) + "," +
         std::to_string(r.wilson_high) + "] p=" +
         std::to_string(r.expected_p) +
         " qshift=" + std::to_string(r.quantile_shift);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// FNV-1a, 64-bit, over raw bytes.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a over the IEEE-754 bits of a per-cell baseline (mean, then stddev).
std::uint64_t baseline_digest(const CellBaseline& b) {
  std::uint64_t h = fnv1a(b.mean.data(), b.mean.size() * sizeof(double));
  return fnv1a(b.stddev.data(), b.stddev.size() * sizeof(double), h);
}

// --- NormalWindow ---

// Satellite regression: alarmed or non-OK intervals must never enter the
// clean reservoir, whatever order they arrive in.
TEST(NormalWindowTest, RejectsAlarmedAndNonOkIntervals) {
  NormalWindow window(8);
  const std::vector<double> row(kCells, 1.0);

  EXPECT_TRUE(window.offer(row, 0, false, ModelHealthStatus::kOk));
  EXPECT_FALSE(window.offer(row, 1, true, ModelHealthStatus::kOk));
  EXPECT_FALSE(window.offer(row, 2, false, ModelHealthStatus::kDrifting));
  EXPECT_FALSE(window.offer(row, 3, false, ModelHealthStatus::kMiscalibrated));
  EXPECT_FALSE(window.offer(row, 4, true, ModelHealthStatus::kDrifting));
  EXPECT_TRUE(window.offer(row, 5, false, ModelHealthStatus::kOk));

  EXPECT_EQ(window.size(), 2u);
  EXPECT_EQ(window.accepted(), 2u);
  EXPECT_EQ(window.rejected(), 4u);
  EXPECT_EQ(window.last_intervals(),
            (std::vector<std::uint64_t>{0, 5}));
}

TEST(NormalWindowTest, RingKeepsNewestRowsOldestFirst) {
  NormalWindow window(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    std::vector<double> row(kCells, static_cast<double>(i));
    EXPECT_TRUE(window.offer(row, i, false, ModelHealthStatus::kOk));
  }
  EXPECT_EQ(window.size(), 4u);
  EXPECT_EQ(window.accepted(), 10u);
  EXPECT_EQ(window.last_intervals(), (std::vector<std::uint64_t>{6, 7, 8, 9}));
  const auto rows = window.last();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows.front()[0], 6.0);
  EXPECT_EQ(rows.back()[0], 9.0);
  // last(n) trims from the old end.
  EXPECT_EQ(window.last_intervals(2), (std::vector<std::uint64_t>{8, 9}));

  window.clear();
  EXPECT_EQ(window.size(), 0u);
  EXPECT_TRUE(window.last().empty());
  EXPECT_EQ(window.accepted(), 10u);  // Monotonic counters survive clear().
}

TEST(NormalWindowTest, RejectsZeroCapacity) {
  EXPECT_THROW(NormalWindow(0), ConfigError);
}

// --- Session ↔ window wiring ---

TEST(SessionCleanWindowTest, AlarmedIntervalsNeverEnterTheWindow) {
  const engine::DetectionEngine engine = tiny_engine();
  engine::SessionOptions so;
  so.clean_window_capacity = 64;
  engine::Session session = engine.new_session(so);
  ASSERT_NE(session.clean_window(), nullptr);

  const auto clean = normal_rows(40, 7);
  std::uint64_t next = 0;
  for (const auto& row : clean) session.analyze(row, next++);

  // Rows scaled far outside the training distribution must alarm — and
  // must therefore be refused by the reservoir.
  std::vector<std::uint64_t> alarmed;
  for (const auto& row : normal_rows(10, 8)) {
    std::vector<double> hot(row);
    for (double& v : hot) v *= 25.0;
    const Verdict v = session.analyze(hot, next);
    ASSERT_TRUE(v.anomalous) << "interval " << next;
    alarmed.push_back(next);
    ++next;
  }

  const auto held = session.clean_window()->last_intervals();
  for (const std::uint64_t a : alarmed) {
    for (const std::uint64_t h : held) {
      EXPECT_NE(h, a) << "alarmed interval leaked into the clean window";
    }
  }
  // The accessor mirrors the window contents.
  EXPECT_EQ(session.last_clean().size(), held.size());
  EXPECT_EQ(session.last_clean(3).size(), std::min<std::size_t>(3, held.size()));
}

TEST(SessionCleanWindowTest, NoWindowUnlessConfigured) {
  const engine::DetectionEngine engine = tiny_engine();
  engine::Session session = engine.new_session();
  EXPECT_EQ(session.clean_window(), nullptr);
  EXPECT_TRUE(session.last_clean().empty());
}

// --- RetrainManager ---

TEST(RetrainManagerTest, RetrainNowPublishesAndSessionPicksUpSwap) {
  engine::DetectionEngine engine = tiny_engine();
  const std::uint64_t v0 = engine.model_version();

  auto window = std::make_shared<NormalWindow>(128);
  std::uint64_t i = 0;
  for (const auto& row : normal_rows(128, 21)) {
    window->offer(row, i++, false, ModelHealthStatus::kOk);
  }

  const std::string dir = test_dir("mhm_retrain_reg");
  std::filesystem::remove_all(dir);
  auto registry = std::make_shared<ModelRegistry>(dir);

  engine::Session session = engine.new_session();
  const auto probe = normal_rows(4, 22);
  EXPECT_EQ(session.analyze(probe[0], 1000).model_version, v0);

  RetrainManager manager(engine, window, registry, inline_options());
  const RetrainReport report = manager.retrain_now(128);
  EXPECT_TRUE(report.accepted) << report_str(report);
  EXPECT_EQ(report.reason, "published");
  EXPECT_EQ(report.version, 1u);
  EXPECT_EQ(report.window_rows, 128u);
  EXPECT_EQ(report.train_rows + report.calibration_rows + report.holdout_rows,
            128u);
  EXPECT_EQ(manager.published(), 1u);
  EXPECT_EQ(manager.last_report().reason, "published");

  // The artifact is on disk and the engine now serves it; the live session
  // picks it up at its next interval boundary without dropping a map.
  EXPECT_EQ(registry->latest_version().value(), 1u);
  EXPECT_EQ(engine.model_version(), 1u);
  const Verdict after = session.analyze(probe[1], 1001);
  EXPECT_EQ(after.model_version, 1u);
  ASSERT_EQ(session.transitions().size(), 1u);
  EXPECT_EQ(session.transitions()[0].from_version, v0);
  EXPECT_EQ(session.transitions()[0].to_version, 1u);

  // Publishing clears the reservoir: the next candidate trains on post-swap
  // behaviour only.
  EXPECT_EQ(window->size(), 0u);

  std::filesystem::remove_all(dir);
}

TEST(RetrainManagerTest, SmallWindowRejectsAndLeavesModelUntouched) {
  engine::DetectionEngine engine = tiny_engine();
  const std::uint64_t v0 = engine.model_version();

  auto window = std::make_shared<NormalWindow>(128);
  std::uint64_t i = 0;
  for (const auto& row : normal_rows(16, 31)) {
    window->offer(row, i++, false, ModelHealthStatus::kOk);
  }

  RetrainManager manager(engine, window, nullptr, inline_options());
  const RetrainReport report = manager.retrain_now(16);
  EXPECT_FALSE(report.accepted);
  EXPECT_EQ(report.reason, "window_too_small");
  EXPECT_EQ(manager.published(), 0u);
  EXPECT_EQ(manager.rejected_count(), 1u);
  EXPECT_EQ(manager.state(), RetrainState::kOk);
  EXPECT_EQ(engine.model_version(), v0);
  // A rejected run must not clear the window — those rows are still good.
  EXPECT_EQ(window->size(), 16u);
}

TEST(RetrainManagerTest, RejectsBadConfig) {
  engine::DetectionEngine engine = tiny_engine();
  auto window = std::make_shared<NormalWindow>(8);
  EXPECT_THROW(RetrainManager(engine, nullptr, nullptr, inline_options()),
               ConfigError);
  RetrainManager::Options bad = inline_options();
  bad.calibration_fraction = 0.5;
  bad.holdout_fraction = 0.5;
  EXPECT_THROW(RetrainManager(engine, window, nullptr, bad), ConfigError);
}

TEST(RetrainManagerTest, SustainedDriftTriggersInlineRetrain) {
  engine::DetectionEngine engine = tiny_engine();
  auto window = std::make_shared<NormalWindow>(128);
  std::uint64_t i = 0;
  for (const auto& row : normal_rows(96, 41)) {
    window->offer(row, i++, false, ModelHealthStatus::kOk);
  }

  RetrainManager::Options opts = inline_options();  // sustain 8, cooldown 16
  RetrainManager manager(engine, window, nullptr, opts);
  EXPECT_EQ(manager.state(), RetrainState::kOk);

  // A drift blip shorter than the sustain threshold resets on the next OK.
  for (std::uint64_t n = 0; n < opts.sustain - 1; ++n) {
    manager.note(100 + n, ModelHealthStatus::kDrifting);
  }
  EXPECT_EQ(manager.state(), RetrainState::kDrifting);
  manager.note(107, ModelHealthStatus::kOk);
  EXPECT_EQ(manager.state(), RetrainState::kOk);
  EXPECT_EQ(manager.published(), 0u);

  // Sustained drift fires exactly one (inline) attempt → publish → cooldown.
  for (std::uint64_t n = 0; n < opts.sustain; ++n) {
    manager.note(200 + n, ModelHealthStatus::kDrifting);
  }
  EXPECT_EQ(manager.published(), 1u);
  EXPECT_EQ(manager.state(), RetrainState::kCooldown);

  // Cooldown swallows further drift for `cooldown` intervals, then re-arms.
  for (std::uint64_t n = 0; n < opts.cooldown; ++n) {
    manager.note(300 + n, ModelHealthStatus::kDrifting);
    EXPECT_EQ(manager.published(), 1u);
  }
  EXPECT_EQ(manager.state(), RetrainState::kOk);
  const std::string json = manager.json();
  EXPECT_NE(json.find("\"state\":\"OK\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"published\":1"), std::string::npos) << json;
}

TEST(RetrainManagerTest, PublishHookSeesTheReport) {
  engine::DetectionEngine engine = tiny_engine();
  auto window = std::make_shared<NormalWindow>(128);
  std::uint64_t i = 0;
  for (const auto& row : normal_rows(128, 51)) {
    window->offer(row, i++, false, ModelHealthStatus::kOk);
  }
  RetrainManager manager(engine, window, nullptr, inline_options());
  std::vector<RetrainReport> seen;
  manager.set_publish_hook(
      [&](const RetrainReport& r) { seen.push_back(r); });
  const RetrainReport report = manager.retrain_now(128);
  ASSERT_TRUE(report.accepted) << report_str(report);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].version, report.version);
  EXPECT_EQ(seen[0].trigger_interval, 128u);
}

// The retrain artifact must be bit-identical at any MHM_THREADS — the
// whole numeric path (top-k PCA, EM, calibration) rides the deterministic
// parallel_for runtime.
TEST(RetrainManagerTest, PublishedArtifactIsBitIdenticalAcrossThreadCounts) {
  const auto fill = normal_rows(128, 61);
  std::string bytes[2];
  const std::size_t threads[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    set_global_threads(threads[t]);
    engine::DetectionEngine engine = tiny_engine();
    auto window = std::make_shared<NormalWindow>(128);
    std::uint64_t i = 0;
    for (const auto& row : fill) {
      window->offer(row, i++, false, ModelHealthStatus::kOk);
    }
    const std::string dir =
        test_dir("mhm_retrain_det") + "_t" + std::to_string(threads[t]);
    std::filesystem::remove_all(dir);
    auto registry = std::make_shared<ModelRegistry>(dir);
    RetrainManager manager(engine, window, registry, inline_options());
    const RetrainReport report = manager.retrain_now(0);
    ASSERT_TRUE(report.accepted) << report_str(report);
    bytes[t] = file_bytes(registry->path_for(report.version));
    std::filesystem::remove_all(dir);

    // Pinned bit for bit: the published artifact, the gates' figures and
    // the per-cell baseline the journal ranks top cells against (held in
    // memory only, never serialized).
    EXPECT_EQ(fnv1a(bytes[t].data(), bytes[t].size()), 0xae2390e42bf6d7d2ULL)
        << "threads " << threads[t];
    EXPECT_EQ(report.holdout_alarm_rate, 0x0p+0);
    EXPECT_EQ(report.quantile_shift, 0x1.30bf35ac40f8p-3);
    EXPECT_EQ(report.wilson_low, 0x1p-56);
    EXPECT_EQ(report.wilson_high, 0x1.c18f9c18f9c18p-3);
    const auto published = engine.current_model();
    ASSERT_NE(published->baseline, nullptr);
    EXPECT_EQ(baseline_digest(*published->baseline), 0xbd86dcdb90355ca6ULL);
  }
  set_global_threads(0);  // Back to the environment default.
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_EQ(bytes[0], bytes[1])
      << "retrain artifact differs between MHM_THREADS=1 and 4";
}

// --- Background worker under live scoring load (the TSan target) ---

TEST(RetrainManagerTest, BackgroundRetrainUnderLoadDropsNothing) {
  engine::DetectionEngine engine = tiny_engine();
  engine::SessionOptions so;
  so.clean_window_capacity = 128;
  // No per-session health monitor: its latching drift detectors would
  // starve the reservoir on this synthetic stream, and the drift signal
  // here is injected through the status hook anyway — this test is about
  // the background worker racing a live scoring loop.
  so.attach_health = false;
  engine::Session session = engine.new_session(so);

  RetrainManager::Options opts;
  opts.background = true;
  opts.sustain = 16;
  opts.cooldown = 64;
  opts.min_window = 64;
  opts.gmm_restarts = 2;
  RetrainManager manager(engine, session.clean_window(), nullptr, opts);
  std::atomic<std::uint64_t> publishes{0};
  manager.set_publish_hook(
      [&](const RetrainReport&) { publishes.fetch_add(1); });

  // The scoring thread (this one) wires its per-interval status into the
  // manager exactly as the serve loop does. A synthetic drift burst starting
  // at interval 300 arms the background worker while scoring continues.
  session.set_status_hook([&](std::uint64_t interval, ModelHealthStatus) {
    const bool drift_burst = interval >= 300 && interval < 420;
    manager.note(interval,
                 drift_burst ? ModelHealthStatus::kDrifting
                             : ModelHealthStatus::kOk);
  });

  const auto rows = normal_rows(700, 71);
  std::vector<Verdict> verdicts;
  verdicts.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    verdicts.push_back(session.analyze(rows[i], i));
  }
  manager.drain();
  // The last attempt may finish after the stream ended; a short tail of
  // intervals picks any post-stream publish up at the next boundary.
  for (const auto& row : normal_rows(4, 72)) {
    verdicts.push_back(session.analyze(row, verdicts.size()));
  }

  // Zero dropped intervals: one verdict per offered map, indices intact.
  ASSERT_EQ(verdicts.size(), rows.size() + 4);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i].interval_index, i);
  }
  // Hot swaps never move a session backwards.
  for (std::size_t i = 1; i < verdicts.size(); ++i) {
    EXPECT_GE(verdicts[i].model_version, verdicts[i - 1].model_version);
  }
  EXPECT_EQ(manager.published(), publishes.load());
  ASSERT_GE(manager.published(), 1u)
      << "drift burst never produced a publish; last attempt: "
      << report_str(manager.last_report()) << "; window accepted="
      << session.clean_window()->accepted()
      << " rejected=" << session.clean_window()->rejected()
      << " size=" << session.clean_window()->size();
  // With a null registry each publish bumps the version by one from 0.
  EXPECT_EQ(engine.model_version(), manager.published());
  EXPECT_EQ(verdicts.back().model_version, engine.model_version());
  ASSERT_GE(session.transitions().size(), 1u);
}

}  // namespace
}  // namespace mhm
