// Multi-resolution score history (src/obs/history): ring/fold mechanics,
// fixed memory, and the /history JSON rendering.

#include "obs/history.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <mutex>
#include <string>

namespace mhm::obs {
namespace {

/// A history over its own ring, appended the way StreamObserver::record
/// appends: push the row, then fold it, under the ring's lock.
struct RingHistory {
  explicit RingHistory(const HistoryOptions& opts)
      : ring(std::make_shared<IntervalRing>(opts.raw_capacity)),
        history(ring, opts) {}
  void append(const IntervalRow& row) {
    std::lock_guard<std::mutex> lk(ring->mutex());
    ring->push(row);
    history.fold_locked(row);
  }
  std::shared_ptr<IntervalRing> ring;
  ScoreHistory history;
};

HistorySample sample_at(std::uint64_t interval, double score,
                        bool alarm = false, std::uint8_t status = 0) {
  HistorySample s;
  s.interval = interval;
  s.score = score;
  s.spe = score * score;
  s.alarm = alarm;
  s.status = status;
  s.model_version = 3;
  return s;
}

TEST(HistoryTest, RawRingKeepsNewestOldestFirst) {
  HistoryOptions opts;
  opts.raw_capacity = 4;
  opts.tiers = 0;
  RingHistory rh(opts);
  const ScoreHistory& history = rh.history;
  for (std::uint64_t i = 0; i < 10; ++i) {
    rh.append(sample_at(i, -static_cast<double>(i)));
  }
  const auto raw = history.raw_snapshot();
  ASSERT_EQ(raw.size(), 4u);
  EXPECT_EQ(raw.front().interval, 6u);
  EXPECT_EQ(raw.back().interval, 9u);
  EXPECT_EQ(history.total_appended(), 10u);
}

TEST(HistoryTest, FoldCommitsMinMeanMaxBins) {
  HistoryOptions opts;
  opts.raw_capacity = 16;
  opts.bin_capacity = 8;
  opts.fold = 4;
  opts.tiers = 1;
  RingHistory rh(opts);
  const ScoreHistory& history = rh.history;
  // One full fold: scores -1, -2, -3, -4 with an alarm on the last.
  for (std::uint64_t i = 0; i < 4; ++i) {
    rh.append(sample_at(i, -static_cast<double>(i + 1), i == 3,
                        i == 3 ? 1 : 0));
  }
  const auto bins = history.tier_snapshot(1);
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_EQ(bins[0].first_interval, 0u);
  EXPECT_EQ(bins[0].last_interval, 3u);
  EXPECT_EQ(bins[0].count, 4u);
  EXPECT_EQ(bins[0].alarms, 1u);
  EXPECT_EQ(bins[0].worst_status, 1);
  EXPECT_DOUBLE_EQ(bins[0].score_min, -4.0);
  EXPECT_DOUBLE_EQ(bins[0].score_max, -1.0);
  EXPECT_DOUBLE_EQ(bins[0].score_mean, -2.5);
}

TEST(HistoryTest, TierTwoSpansFoldSquared) {
  HistoryOptions opts;
  opts.raw_capacity = 8;
  opts.bin_capacity = 8;
  opts.fold = 2;
  opts.tiers = 2;
  RingHistory rh(opts);
  const ScoreHistory& history = rh.history;
  EXPECT_EQ(history.span_at(0), 1u);
  EXPECT_EQ(history.span_at(1), 2u);
  EXPECT_EQ(history.span_at(2), 4u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    rh.append(sample_at(i, -static_cast<double>(i)));
  }
  const auto t1 = history.tier_snapshot(1);
  const auto t2 = history.tier_snapshot(2);
  ASSERT_EQ(t1.size(), 4u);
  ASSERT_EQ(t2.size(), 2u);
  EXPECT_EQ(t2[0].count, 4u);
  EXPECT_EQ(t2[0].first_interval, 0u);
  EXPECT_EQ(t2[0].last_interval, 3u);
  EXPECT_DOUBLE_EQ(t2[0].score_min, -3.0);
  EXPECT_DOUBLE_EQ(t2[0].score_mean, -1.5);
  // Out-of-range tier is empty, not an error.
  EXPECT_TRUE(history.tier_snapshot(3).empty());
}

TEST(HistoryTest, MemoryIsFixedAndWithinFleetBudget) {
  // The fleet preset: raw 32, bins 16, one folded tier. The rings must not
  // grow with appends and must stay far inside the 64 KB session budget.
  HistoryOptions opts;
  opts.raw_capacity = 32;
  opts.bin_capacity = 16;
  opts.fold = 8;
  opts.tiers = 1;
  RingHistory rh(opts);
  const ScoreHistory& history = rh.history;
  const std::size_t before = history.memory_bytes();
  for (std::uint64_t i = 0; i < 10000; ++i) {
    rh.append(sample_at(i, -1.0));
  }
  EXPECT_EQ(history.memory_bytes(), before);
  EXPECT_LT(history.memory_bytes(), 64u * 1024u);
  // The single-stream default also fits the per-session budget.
  RingHistory full{HistoryOptions{}};
  EXPECT_LT(full.history.memory_bytes(), 64u * 1024u);
}

TEST(HistoryTest, JsonRendersSeriesAndResolution) {
  HistoryOptions opts;
  opts.raw_capacity = 8;
  opts.bin_capacity = 4;
  opts.fold = 2;
  opts.tiers = 1;
  RingHistory rh(opts);
  const ScoreHistory& history = rh.history;
  for (std::uint64_t i = 0; i < 4; ++i) {
    rh.append(sample_at(i, -2.0, i == 1));
  }
  const std::string raw = history_json(history, "score", 0);
  EXPECT_NE(raw.find("\"res\":0"), std::string::npos);
  EXPECT_NE(raw.find("\"interval\":3"), std::string::npos);
  EXPECT_NE(raw.find("\"score\":"), std::string::npos);
  EXPECT_EQ(raw.find("\"spe\":"), std::string::npos);

  const std::string all = history_json(history, "all", 0);
  EXPECT_NE(all.find("\"spe\":"), std::string::npos);
  EXPECT_NE(all.find("\"alarm\":1"), std::string::npos);

  const std::string folded = history_json(history, "score", 1);
  EXPECT_NE(folded.find("\"res\":1"), std::string::npos);
  EXPECT_NE(folded.find("\"score_min\":"), std::string::npos);
  EXPECT_NE(folded.find("\"count\":2"), std::string::npos);
}

TEST(HistoryTest, JsonFromFiltersOldEntries) {
  RingHistory rh{HistoryOptions{}};
  const ScoreHistory& history = rh.history;
  for (std::uint64_t i = 0; i < 10; ++i) {
    rh.append(sample_at(i, -1.0));
  }
  const std::string tail = history_json(history, "score", 0, 8);
  EXPECT_EQ(tail.find("\"interval\":7"), std::string::npos);
  EXPECT_NE(tail.find("\"interval\":8"), std::string::npos);
  EXPECT_NE(tail.find("\"interval\":9"), std::string::npos);
  // A from beyond the ring yields an empty samples array, not an error.
  const std::string empty = history_json(history, "score", 0, 1000);
  EXPECT_NE(empty.find("\"samples\":[]"), std::string::npos);
}

}  // namespace
}  // namespace mhm::obs
