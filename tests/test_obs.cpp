#include "obs/export.hpp"
#include "obs/history.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "attacks/attacks.hpp"
#include "common/rng.hpp"
#include "core/detector.hpp"
#include "engine/engine.hpp"
#include "pipeline/experiment.hpp"

namespace mhm {
namespace {

/// Restores the kill switch on scope exit so one test cannot leak a
/// disabled obs layer into the next.
struct EnabledGuard {
  bool saved = obs::enabled();
  ~EnabledGuard() { obs::set_enabled(saved); }
};

TEST(Registry, CounterFoldIsExactAcrossThreadCounts) {
  EnabledGuard guard;
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  // The same logical workload split over 1, 2 and 8 threads must fold to
  // the same total: shards are integers, so the fold is exact no matter
  // which thread landed on which slot.
  constexpr std::uint64_t kPerThreadAdds = 10'000;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    obs::Counter& c = obs::Registry::instance().counter("test.fold.counter");
    c.reset();
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (std::uint64_t i = 0; i < kPerThreadAdds; ++i) c.add();
      });
    }
    for (auto& t : pool) t.join();
    EXPECT_EQ(c.value(), kPerThreadAdds * threads) << threads << " threads";
  }
}

TEST(Registry, HistogramFoldIsDeterministic) {
  EnabledGuard guard;
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  obs::Histogram& h = obs::Registry::instance().histogram(
      "test.fold.histogram", {1.0, 10.0, 100.0});
  for (const std::size_t threads : {1u, 2u, 8u}) {
    h.reset();
    // Each thread observes the same integer-valued set, so count, sum and
    // every bucket must match the serial result exactly.
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (int i = 0; i < 100; ++i) h.observe(0.5);   // bucket le=1
        for (int i = 0; i < 10; ++i) h.observe(5.0);    // bucket le=10
        for (int i = 0; i < 3; ++i) h.observe(1000.0);  // +Inf bucket
      });
    }
    for (auto& t : pool) t.join();
    const auto n = static_cast<std::uint64_t>(threads);
    EXPECT_EQ(h.count(), 113 * n);
    EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(n) * (100 * 0.5 + 10 * 5.0 + 3 * 1000.0));
    const auto buckets = h.bucket_counts();
    ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + Inf
    EXPECT_EQ(buckets[0], 100 * n);
    EXPECT_EQ(buckets[1], 10 * n);
    EXPECT_EQ(buckets[2], 0u);
    EXPECT_EQ(buckets[3], 3 * n);
  }
}

TEST(Registry, FindOrCreateReturnsStableHandles) {
  obs::Counter& a = obs::Registry::instance().counter("test.stable");
  obs::Counter& b = obs::Registry::instance().counter("test.stable");
  EXPECT_EQ(&a, &b);
}

TEST(Registry, TypeMismatchThrows) {
  obs::Registry::instance().counter("test.mismatch");
  EXPECT_THROW(obs::Registry::instance().gauge("test.mismatch"),
               std::logic_error);
  EXPECT_THROW(
      obs::Registry::instance().histogram("test.mismatch", {1.0}),
      std::logic_error);
}

TEST(Registry, SnapshotIsLexicographicallyOrdered) {
  obs::Registry::instance().counter("test.order.b");
  obs::Registry::instance().counter("test.order.a");
  const auto snap = obs::Registry::instance().snapshot();
  ASSERT_GE(snap.size(), 2u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name);
  }
}

TEST(Spans, NestingRecordsParentIds) {
  EnabledGuard guard;
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  obs::SpanBuffer::instance().clear();
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    // What OBS_SCOPE(kPipelineTrain) / OBS_SCOPE(kPcaFit) expand to, named
    // so the test can read the span ids.
    obs::prof::Scope outer(obs::prof::Stage::kPipelineTrain);
    outer_id = outer.id();
    {
      obs::prof::Scope inner(obs::prof::Stage::kPcaFit);
      inner_id = inner.id();
    }
  }
  ASSERT_NE(outer_id, 0u);
  ASSERT_NE(inner_id, 0u);
  const auto spans = obs::SpanBuffer::instance().snapshot();
  // Children close before parents, so the inner span is recorded first.
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "pca.fit");
  EXPECT_EQ(spans[0].id, inner_id);
  EXPECT_EQ(spans[0].parent_id, outer_id);
  EXPECT_STREQ(spans[1].name, "pipeline.train");
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_GE(spans[1].duration_ns, spans[0].duration_ns);
}

TEST(Spans, RingWrapsAroundKeepingNewest) {
  EnabledGuard guard;
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  obs::SpanBuffer& buffer = obs::SpanBuffer::instance();
  const std::size_t saved_capacity = buffer.capacity();
  buffer.set_capacity(8);
  const std::uint64_t before = buffer.total_recorded();
  for (int i = 0; i < 20; ++i) {
    OBS_SCOPE(kGmmRestart);
  }
  const auto spans = buffer.snapshot();
  EXPECT_EQ(spans.size(), 8u);
  EXPECT_EQ(buffer.total_recorded(), before + 20);
  // Oldest-to-newest: ids must be strictly increasing.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GT(spans[i].id, spans[i - 1].id);
  }
  buffer.set_capacity(saved_capacity);
}

TEST(Journal, CapturesInjectedAttackAlarms) {
  EnabledGuard guard;
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  // Fast-scale end-to-end: train on normal behaviour, run the shellcode
  // scenario, and require the journal to explain the alarms the detector
  // returned — interval, density vs threshold, and deviating cells.
  const sim::SystemConfig cfg = pipeline::fast_test_config(1);
  pipeline::TrainedPipeline pipe =
      pipeline::train_pipeline(cfg, pipeline::fast_test_plan(),
                               pipeline::fast_test_detector_options());
  auto attack = attacks::make_scenario("shellcode");
  engine::Session session = pipe.make_engine().new_session();
  const pipeline::ScenarioRun run = pipeline::run_scenario(
      cfg, attack.get(), 500 * kMillisecond, 1500 * kMillisecond, &session,
      42);

  std::size_t verdict_alarms = 0;
  for (const auto& v : run.verdicts) verdict_alarms += v.anomalous;
  ASSERT_GT(verdict_alarms, 0u) << "shellcode must trip the detector";

  const auto alarms = session.journal().alarms();
  EXPECT_EQ(alarms.size(), verdict_alarms);
  for (const auto& rec : alarms) {
    EXPECT_LT(rec.log10_density, rec.threshold);
    EXPECT_DOUBLE_EQ(rec.threshold,
                     pipe.det().primary_threshold().log10_value);
    ASSERT_FALSE(rec.top_cells.empty());
    // Contributions are ranked by |z| descending.
    for (std::size_t i = 1; i < rec.top_cells.size(); ++i) {
      EXPECT_GE(std::abs(rec.top_cells[i - 1].z_score),
                std::abs(rec.top_cells[i].z_score));
    }
  }
  // Every alarm is findable by interval index.
  for (const auto& v : run.verdicts) {
    if (!v.anomalous) continue;
    const auto rec = session.journal().find(v.interval_index);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->log10_density, v.log10_density);  // bit-for-bit
  }
}

// rank_cells_by_z against the reference ranking — a full-index
// partial_sort by |z| descending, ties to the lower index — on random
// integer maps where |z| ties are common (floored spreads give integer z,
// and +z / −z tie too), and on a post-alarm forensics case: a cold cell
// that lights up must rank first, and a cell whose activity vanished keeps
// its negative sign.
TEST(Journal, RankCellsByZMatchesPartialSortReference) {
  std::vector<obs::CellContribution> got;
  const auto check = [&](const std::vector<double>& raw,
                         const std::vector<double>& mean,
                         const std::vector<double>& stddev, int round) {
    const std::size_t l = raw.size();
    const auto z_of = [&](std::size_t i) {
      return (raw[i] - mean[i]) / std::max(stddev[i], 1.0);
    };
    std::vector<std::size_t> order(l);
    for (std::size_t i = 0; i < l; ++i) order[i] = i;
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                std::size_t{8}, l, l + 3}) {
      const std::size_t keep = std::min(k, l);
      std::partial_sort(order.begin(),
                        order.begin() + static_cast<std::ptrdiff_t>(keep),
                        order.end(), [&](std::size_t a, std::size_t b) {
                          const double za = std::abs(z_of(a));
                          const double zb = std::abs(z_of(b));
                          return za != zb ? za > zb : a < b;
                        });
      obs::rank_cells_by_z(raw, mean, stddev, k, got);
      ASSERT_EQ(got.size(), keep) << "round " << round << " k " << k;
      for (std::size_t r = 0; r < keep; ++r) {
        const std::size_t i = order[r];
        EXPECT_EQ(got[r].cell, i) << "round " << round << " k " << k
                                  << " rank " << r;
        EXPECT_EQ(got[r].observed, raw[i]);
        EXPECT_EQ(got[r].expected, mean[i]);
        EXPECT_EQ(got[r].z_score, z_of(i));
      }
    }
  };

  Rng rng(0x2A11);
  for (int round = 0; round < 200; ++round) {
    const std::size_t l = static_cast<std::size_t>(rng.uniform_int(1, 64));
    std::vector<double> raw(l), mean(l), stddev(l);
    for (std::size_t i = 0; i < l; ++i) {
      raw[i] = static_cast<double>(rng.uniform_int(0, 12));
      mean[i] = static_cast<double>(rng.uniform_int(0, 12));
      stddev[i] = rng.bernoulli(0.7) ? rng.uniform(0.0, 1.0)
                                     : static_cast<double>(rng.uniform_int(1, 3));
    }
    check(raw, mean, stddev, round);
  }

  // Forensics: eight active cells (mean 100·(c+1), spread 30·(c+1)) and
  // twelve never-touched ones. Cold cell 14 lights up; cell 7 goes dark.
  std::vector<double> mean(20, 0.0), stddev(20, 0.0), raw(20, 0.0);
  for (std::size_t c = 0; c < 8; ++c) {
    mean[c] = 100.0 * static_cast<double>(c + 1);
    stddev[c] = 30.0 * static_cast<double>(c + 1);
    raw[c] = mean[c] + 10.0;
  }
  raw[7] = 0.0;
  raw[14] = 5000.0;
  check(raw, mean, stddev, 200);
  obs::rank_cells_by_z(raw, mean, stddev, 2, got);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].cell, 14u);
  EXPECT_EQ(got[0].z_score, 5000.0);  // Spread floored at one count.
  EXPECT_EQ(got[1].cell, 7u);
  EXPECT_LT(got[1].z_score, -3.0);
}

// The journal's side state (coordinates, alarm top cells, notes) follows
// the ring it views: records leaving the ring take their side entries with
// them, and each record keeps the L′ it was projected with across hot swaps
// that widen or narrow the projection.
TEST(Journal, SideStateFollowsTheRingAcrossWrapAndWidthChanges) {
  auto ring = std::make_shared<obs::IntervalRing>(4);
  obs::DecisionJournal journal(ring, 4, /*phases=*/3, /*dims=*/2,
                               /*top_cells=*/1);
  const std::vector<double> mean(8, 0.0), stddev(8, 1.0);
  const auto reduced_of = [](std::uint64_t i) {
    const std::size_t dims = i < 5 ? 2 : i < 7 ? 3 : 1;
    return std::vector<double>(dims, static_cast<double>(i));
  };
  for (std::uint64_t i = 0; i < 10; ++i) {
    std::vector<double> raw(8, 0.0);
    raw[i % 8] = 10.0 + static_cast<double>(i);  // The one deviating cell.
    std::string note = i == 2 ? "a" : i == 8 ? "b" : "";
    std::lock_guard<std::mutex> lk(ring->mutex());
    ring->push(obs::IntervalRow{
        .interval = i, .alarm = i == 1 || i == 4 || i == 6 || i == 8});
    journal.record_locked(reduced_of(i), raw, mean, stddev, note);
  }
  const std::vector<obs::DecisionRecord> records = journal.snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t k = 0; k < records.size(); ++k) {
    const obs::DecisionRecord& r = records[k];
    const std::uint64_t i = 6 + k;
    EXPECT_EQ(r.interval_index, i);
    EXPECT_EQ(r.phase, i % 3);
    EXPECT_EQ(r.reduced_coords, reduced_of(i)) << i;
    if (r.alarm) {
      ASSERT_EQ(r.top_cells.size(), 1u) << i;
      EXPECT_EQ(r.top_cells[0].cell, i % 8);
    } else {
      EXPECT_TRUE(r.top_cells.empty()) << i;
    }
    EXPECT_EQ(r.note, i == 8 ? "b" : "") << i;
  }
  EXPECT_EQ(journal.alarms().size(), 2u);
  EXPECT_FALSE(journal.find(2).has_value());
  ASSERT_TRUE(journal.find(8).has_value());
  EXPECT_EQ(journal.find(8)->note, "b");
  EXPECT_EQ(journal.snapshot(1).front().interval_index, 9u);
  EXPECT_EQ(journal.total_appended(), 10u);
}

TEST(IntervalRing, ReserveKeepsEveryRetainedEntry) {
  obs::IntervalRing ring(3);
  std::lock_guard<std::mutex> lk(ring.mutex());
  for (std::uint64_t i = 0; i < 5; ++i) ring.push({.interval = i});
  ring.reserve(6);
  for (std::uint64_t seq = 2; seq < 5; ++seq) {
    EXPECT_EQ(ring.at(seq).interval, seq);
  }
  for (std::uint64_t i = 5; i < 8; ++i) ring.push({.interval = i});
  EXPECT_EQ(ring.first(6), 2u);
  for (std::uint64_t seq = 2; seq < 8; ++seq) {
    EXPECT_EQ(ring.at(seq).interval, seq);
  }
}

TEST(KillSwitch, DisabledLayerRecordsNothing) {
  EnabledGuard guard;
  obs::set_enabled(false);

  obs::Counter& c = obs::Registry::instance().counter("test.disabled.counter");
  c.reset();
  c.add(42);
  EXPECT_EQ(c.value(), 0u);

  obs::Gauge& g = obs::Registry::instance().gauge("test.disabled.gauge");
  g.reset();
  g.set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);

  obs::Histogram& h =
      obs::Registry::instance().histogram("test.disabled.histogram", {1.0});
  h.reset();
  h.observe(0.5);
  EXPECT_EQ(h.count(), 0u);

  obs::SpanBuffer::instance().clear();
  {
    obs::prof::Scope span(obs::prof::Stage::kPcaFit);
    EXPECT_EQ(span.id(), 0u);
  }
  EXPECT_TRUE(obs::SpanBuffer::instance().snapshot().empty());

  // StreamObserver::record is a no-op: no ring row, so the journal and the
  // score history stay empty.
  AnomalyDetector::Options opts;
  opts.pca.components = 2;
  opts.gmm.components = 1;
  std::vector<std::vector<double>> rows;
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    rows.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                    rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
  }
  engine::Session session =
      engine::DetectionEngine(
          AnomalyDetector::train(rows, rows, opts).snapshot())
          .new_session();
  (void)session.analyze(rows.front(), 0);
  EXPECT_EQ(session.journal().size(), 0u);
  EXPECT_EQ(session.journal().total_appended(), 0u);
  EXPECT_EQ(session.score_history()->total_appended(), 0u);
}

TEST(Exporters, PrometheusTextCarriesFoldedValues) {
  EnabledGuard guard;
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  obs::Counter& c = obs::Registry::instance().counter(
      "test.export.counter", "help text");
  c.reset();
  c.add(3);
  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("# TYPE mhm_test_export_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("mhm_test_export_counter 3"), std::string::npos);
  EXPECT_NE(text.find("# HELP mhm_test_export_counter help text"),
            std::string::npos);
}

TEST(Exporters, JournalJsonLinesRoundTripFields) {
  EnabledGuard guard;
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  // One alarm row written the way StreamObserver::record writes it; cell 9
  // of the map is the one deviating cell, z = (100 − 1) / 8.25 = 12.
  auto ring = std::make_shared<obs::IntervalRing>(4);
  obs::DecisionJournal journal(ring, 4, /*phases=*/4, /*dims=*/2,
                               /*top_cells=*/1);
  std::vector<double> raw(16, 1.0), mean(16, 1.0), stddev(16, 1.0);
  raw[9] = 100.0;
  stddev[9] = 8.25;
  const std::vector<double> reduced = {1.5, -2.0};
  std::string note;
  {
    std::lock_guard<std::mutex> lk(ring->mutex());
    ring->push(obs::IntervalRow{.interval = 7,
                                .score = -42.5,
                                .threshold = -30.0,
                                .alarm = true,
                                .pattern = 2});
    journal.record_locked(reduced, raw, mean, stddev, note);
  }
  const std::string lines = obs::journal_json_lines(journal);
  EXPECT_NE(lines.find("\"phase\":3"), std::string::npos);
  EXPECT_NE(lines.find("\"reduced\":[1.5,-2]"), std::string::npos);
  EXPECT_NE(lines.find("\"z\":12"), std::string::npos);
  EXPECT_NE(lines.find("\"interval\":7"), std::string::npos);
  EXPECT_NE(lines.find("\"alarm\":true"), std::string::npos);
  EXPECT_NE(lines.find("\"cell\":9"), std::string::npos);
}

}  // namespace
}  // namespace mhm
