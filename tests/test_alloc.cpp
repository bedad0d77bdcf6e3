// Zero-allocation contracts of the scoring path. This binary replaces the
// global operator new with a counting one, so a test can prove that a warm
// scorer never touches the heap: score_snapshot from a HeatMap's counts,
// score_snapshot_batch (full tiles and a ragged tail), an alarm-free
// Session::analyze(const HeatMap&) under default options, and a whole
// incident — the trigger interval and its post window — once the incident
// recorder's buffers are warm.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/detector.hpp"
#include "core/snapshot.hpp"
#include "engine/engine.hpp"
#include "obs/incident.hpp"
#include "obs/obs.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable non-aligned form, nothrow included (std::stable_sort's
// temporary buffer uses it): under ASan a form left to the runtime would
// pair its allocation with this file's free().
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mhm {
namespace {

/// Counts every heap allocation in the process between construction and
/// stop().
class AllocCounter {
 public:
  AllocCounter() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocCounter() { g_counting.store(false, std::memory_order_relaxed); }
  std::uint64_t stop() {
    g_counting.store(false, std::memory_order_relaxed);
    return g_allocs.load(std::memory_order_relaxed);
  }
};

constexpr std::size_t kCells = 368;

HeatMapTrace normal_maps(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  HeatMapTrace maps;
  for (std::uint64_t i = 0; i < n; ++i) {
    HeatMap m(kCells);
    const double load = rng.uniform(0.5, 1.5);
    for (std::size_t c = 0; c < kCells; ++c) {
      m.increment(c, rng.poisson(load * (8.0 + 6.0 * static_cast<double>(
                                                        c % 7))));
    }
    m.interval_index = i;
    maps.push_back(std::move(m));
  }
  return maps;
}

class AllocTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    AnomalyDetector::Options opts;
    opts.pca.components = 9;
    opts.gmm.components = 3;
    opts.gmm.restarts = 2;
    const AnomalyDetector det = AnomalyDetector::train(
        normal_maps(300, 1), normal_maps(200, 2), opts);
    model_ = new std::shared_ptr<const ModelSnapshot>(det.snapshot());
    // Keep the maps the model calls normal: the Session test below is about
    // the alarm-free path.
    maps_ = new HeatMapTrace();
    ScoreScratch scratch;
    for (HeatMap& m : normal_maps(400, 3)) {
      if (!score_snapshot(**model_, m, scratch).anomalous) {
        maps_->push_back(std::move(m));
      }
    }
  }
  static void TearDownTestSuite() {
    delete maps_;
    maps_ = nullptr;
    delete model_;
    model_ = nullptr;
  }

  static std::shared_ptr<const ModelSnapshot>* model_;
  static HeatMapTrace* maps_;
};

std::shared_ptr<const ModelSnapshot>* AllocTest::model_ = nullptr;
HeatMapTrace* AllocTest::maps_ = nullptr;

TEST_F(AllocTest, ScoreSnapshotFromCountsIsAllocationFree) {
  const ModelSnapshot& model = **model_;
  ASSERT_GT(maps_->size(), 100u);
  ScoreScratch scratch;
  (void)score_snapshot(model, maps_->front(), scratch);  // Warm-up.

  AllocCounter counter;
  for (const HeatMap& m : *maps_) (void)score_snapshot(model, m, scratch);
  EXPECT_EQ(counter.stop(), 0u);
}

TEST_F(AllocTest, ScoreSnapshotBatchIsAllocationFree) {
  const ModelSnapshot& model = **model_;
  std::vector<std::vector<double>> rows;
  for (const HeatMap& m : *maps_) rows.push_back(m.as_vector());
  ASSERT_GE(rows.size(), 37u);
  ScoreBatch batch;
  BatchScoreScratch scratch;
  // 37 = two full 16-lane tiles plus a ragged tail of 5; smaller sizes reuse
  // the buffers grown here.
  const auto score = [&](std::size_t size, std::size_t offset) {
    batch.clear(model.pca.input_dim());
    for (std::size_t b = 0; b < size; ++b) {
      const std::size_t r = (offset + b) % rows.size();
      batch.push(rows[r], r);
    }
    score_snapshot_batch(model, batch, scratch);
  };
  score(37, 0);  // Warm-up.

  AllocCounter counter;
  for (std::size_t round = 0; round < 20; ++round) {
    for (const std::size_t size : {37u, 16u, 5u, 1u}) score(size, round);
  }
  EXPECT_EQ(counter.stop(), 0u);
}

TEST_F(AllocTest, AlarmFreeSessionAnalyzeIsAllocationFreeOnceJournalFills) {
  engine::Session session =
      engine::DetectionEngine(*model_).new_session();
  const std::size_t warm = session.journal().capacity() + 16;
  std::uint64_t next = 0;
  HeatMap map = maps_->front();
  const auto analyze_next = [&] {
    map = (*maps_)[next % maps_->size()];
    map.interval_index = next++;
    return session.analyze(map);
  };
  std::size_t alarms = 0;
  for (std::size_t i = 0; i < warm; ++i) alarms += analyze_next().anomalous;
  ASSERT_EQ(alarms, 0u);

  AllocCounter counter;
  for (std::size_t i = 0; i < 500; ++i) alarms += analyze_next().anomalous;
  const std::uint64_t allocs = counter.stop();
  ASSERT_EQ(alarms, 0u);
  EXPECT_EQ(allocs, 0u);
}

TEST_F(AllocTest, IncidentTriggerAndPostWindowAreAllocationFree) {
  // The verdicts of an incident window live in the session ring and its rows
  // in the recorder's preallocated row ring, so from the trigger interval
  // until the commit hand-off nothing is copied onto the heap. The first
  // burst warms every buffer an alarm touches (the row ring, the recorder's
  // top cells, the journal's alarm-cell slots); the second, once the first
  // has aged out of the journal, is the one measured.
  if (!obs::enabled()) GTEST_SKIP() << "obs layer off: nothing is recorded";
  engine::SessionOptions options;
  options.journal_capacity = 64;
  engine::Session session =
      engine::DetectionEngine(*model_).new_session(options);
  obs::IncidentOptions trigger;  // pre 16, post 16, 3 alarms in 8 intervals.
  trigger.min_gap = 128;
  obs::IncidentStore::Options store_options;
  store_options.dir = ::testing::TempDir() + "mhm_alloc_incident";
  std::filesystem::create_directories(store_options.dir);
  auto store = std::make_shared<obs::IncidentStore>(store_options);
  session.attach_incidents(trigger, store);

  HeatMap attacked = maps_->front();
  for (std::size_t c = 0; c < 32; ++c) attacked.increment(c, 400);
  std::uint64_t next = 0;
  HeatMap map = maps_->front();
  const auto analyze_next = [&](bool attack) {
    map = attack ? attacked : (*maps_)[next % maps_->size()];
    map.interval_index = next++;
    return session.analyze(map).anomalous;
  };
  const auto burst = [&] {
    for (int i = 0; i < 2; ++i) ASSERT_TRUE(analyze_next(true));
  };
  for (std::size_t i = 0; i < 64; ++i) ASSERT_FALSE(analyze_next(false));
  burst();
  ASSERT_TRUE(analyze_next(true));
  for (std::size_t i = 0; i < trigger.post; ++i) analyze_next(false);
  ASSERT_EQ(store->total_committed(), 1u);
  for (std::size_t i = 0; i < 200; ++i) ASSERT_FALSE(analyze_next(false));
  burst();

  AllocCounter counter;
  const bool trigger_alarm = analyze_next(true);
  std::size_t alarms = 0;
  for (std::size_t i = 0; i + 1 < trigger.post; ++i) {
    alarms += analyze_next(false);
  }
  const std::uint64_t allocs = counter.stop();
  ASSERT_TRUE(trigger_alarm);
  ASSERT_EQ(alarms, 0u);
  ASSERT_TRUE(session.incident_recorder()->pending());
  EXPECT_EQ(allocs, 0u);
  analyze_next(false);  // The commit hand-off.
  EXPECT_EQ(store->total_committed(), 2u);
  std::filesystem::remove_all(store_options.dir);
}

}  // namespace
}  // namespace mhm
