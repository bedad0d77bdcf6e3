// Incident black box (src/obs/incident): trigger logic, crash-safe bundle
// commit + parse round trip, rate limiting, the JSON surfaces, and the
// armed store's crash bundle.

#include "obs/incident.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace mhm::obs {
namespace {

class IncidentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("mhm_incident_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->line()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    IncidentStore::Options opts;
    opts.dir = dir_.string();
    store_ = std::make_shared<IncidentStore>(opts);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static IncidentOptions small_options() {
    IncidentOptions o;
    o.pre = 2;
    o.post = 2;
    o.burst_count = 2;
    o.burst_window = 4;
    o.min_gap = 1000;
    o.top_cells = 4;
    return o;
  }

  /// One interval with a deterministic 4-cell row: its ring row first, as
  /// StreamObserver::record writes it, then the recorder's note.
  void feed(IncidentRecorder& rec, std::uint64_t interval, bool alarm,
            std::uint8_t status = 0) {
    const double row[4] = {static_cast<double>(interval), 1.0, 2.0, 3.0};
    const double mean[4] = {0.0, 1.0, 2.0, 3.0};
    const double stddev[4] = {1.0, 1.0, 1.0, 1.0};
    {
      std::lock_guard<std::mutex> lk(ring_->mutex());
      ring_->push(IntervalRow{
          .interval = interval,
          .score = -20.0 - static_cast<double>(interval) / 3.0,
          .spe = 0.25 * static_cast<double>(interval),
          .threshold = -25.5,
          .alarm = alarm,
          .status = status,
          .pattern = 2,
          .model_version = 9});
    }
    rec.note(row, mean, stddev);
  }

  std::filesystem::path dir_;
  std::shared_ptr<IncidentStore> store_;
  std::shared_ptr<IntervalRing> ring_ = std::make_shared<IntervalRing>(1);
};

TEST_F(IncidentTest, AlarmBurstCommitsParseableBundle) {
  IncidentRecorder rec(small_options(), store_, ring_);
  for (std::uint64_t i = 0; i < 5; ++i) feed(rec, i, false);
  feed(rec, 5, true);
  feed(rec, 6, true);  // Second alarm in the window: trigger.
  EXPECT_TRUE(rec.pending());
  feed(rec, 7, false);
  feed(rec, 8, false);  // Post window filled: commit.
  EXPECT_FALSE(rec.pending());
  ASSERT_EQ(rec.committed(), 1u);
  ASSERT_EQ(store_->total_committed(), 1u);

  const auto summaries = store_->summaries();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].reason, "alarm_burst");
  EXPECT_EQ(summaries[0].trigger_interval, 6u);
  EXPECT_EQ(summaries[0].model_version, 9u);

  IncidentBundle bundle;
  std::string error;
  ASSERT_TRUE(parse_incident_file(summaries[0].path, &bundle, &error))
      << error;
  EXPECT_FALSE(bundle.truncated);
  const Incident& inc = bundle.incident;
  EXPECT_EQ(inc.reason, "alarm_burst");
  EXPECT_EQ(inc.trigger_interval, 6u);
  EXPECT_EQ(inc.model_version, 9u);
  EXPECT_EQ(inc.cells, 4u);
  // pre=2 before the trigger + trigger + post=2.
  ASSERT_EQ(inc.window.size(), 5u);
  EXPECT_EQ(inc.window.front().interval, 4u);
  EXPECT_EQ(inc.window.back().interval, 8u);
  EXPECT_FALSE(bundle.build_info.empty());
  // Hexfloat round trip: the parsed doubles are bit-identical to what the
  // recorder saw, and the captured rows came back whole.
  for (const auto& e : inc.window) {
    EXPECT_EQ(e.score, -20.0 - static_cast<double>(e.interval) / 3.0);
    EXPECT_EQ(e.spe, 0.25 * static_cast<double>(e.interval));
    ASSERT_EQ(e.row.size(), 4u);
    EXPECT_EQ(e.row[0], static_cast<double>(e.interval));
  }
  EXPECT_EQ(inc.threshold, -25.5);
  EXPECT_FALSE(inc.top_cells.empty());
}

TEST_F(IncidentTest, HealthTransitionTriggers) {
  IncidentRecorder rec(small_options(), store_, ring_);
  feed(rec, 0, false, 0);
  feed(rec, 1, false, 1);  // OK -> DRIFTING.
  feed(rec, 2, false, 1);
  feed(rec, 3, false, 1);
  ASSERT_EQ(rec.committed(), 1u);
  const auto summaries = store_->summaries();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].reason, "health_transition");
  EXPECT_EQ(summaries[0].trigger_interval, 1u);
}

TEST_F(IncidentTest, MinGapRateLimitsRepeatTriggers) {
  IncidentRecorder rec(small_options(), store_, ring_);
  for (std::uint64_t i = 0; i < 20; ++i) feed(rec, i, true);
  // One sustained alarm wave: exactly one bundle, the rest suppressed.
  EXPECT_EQ(rec.committed(), 1u);
  EXPECT_GT(rec.suppressed(), 0u);
  EXPECT_EQ(store_->total_committed(), 1u);
}

TEST_F(IncidentTest, PartialWriteParsesAsTruncated) {
  Incident incident;
  incident.reason = "alarm_burst";
  incident.trigger_interval = 10;
  incident.model_version = 2;
  incident.cells = 4;
  incident.pre = 1;
  incident.post = 1;
  for (std::uint64_t i = 9; i <= 11; ++i) {
    IncidentEntry e;
    e.interval = i;
    e.score = -30.0;
    e.alarm = i == 10;
    e.row.assign(4, 1.0);
    incident.window.push_back(e);
  }
  const std::string path = store_->debug_commit_partial(std::move(incident));
  ASSERT_FALSE(path.empty());
  IncidentBundle bundle;
  std::string error;
  ASSERT_TRUE(parse_incident_file(path, &bundle, &error)) << error;
  EXPECT_TRUE(bundle.truncated);
  EXPECT_EQ(bundle.incident.trigger_interval, 10u);
}

TEST_F(IncidentTest, JsonSurfacesAndUnknownId) {
  IncidentRecorder rec(small_options(), store_, ring_);
  for (std::uint64_t i = 0; i < 5; ++i) feed(rec, i, false);
  feed(rec, 5, true);
  feed(rec, 6, true);
  feed(rec, 7, false);
  feed(rec, 8, false);
  ASSERT_EQ(store_->total_committed(), 1u);

  const std::string list = store_->json_list();
  EXPECT_NE(list.find("\"total\":1"), std::string::npos);
  EXPECT_NE(list.find("\"reason\":\"alarm_burst\""), std::string::npos);

  const auto one = store_->json_one(1);
  ASSERT_TRUE(one.has_value());
  EXPECT_NE(one->find("\"verdicts\":["), std::string::npos);
  EXPECT_NE(one->find("\"score_hex\":\""), std::string::npos);
  EXPECT_FALSE(store_->json_one(999).has_value());
}

TEST_F(IncidentTest, UnknownSectionsAreSkipped) {
  IncidentRecorder rec(small_options(), store_, ring_);
  for (std::uint64_t i = 0; i < 5; ++i) feed(rec, i, false);
  feed(rec, 5, true);
  feed(rec, 6, true);
  feed(rec, 7, false);
  feed(rec, 8, false);
  ASSERT_EQ(store_->total_committed(), 1u);

  // A section this parser does not know, between rows and profile.
  std::ifstream in(store_->summaries()[0].path);
  std::stringstream text;
  text << in.rdbuf();
  std::string body = text.str();
  const std::size_t at = body.find("== profile ==");
  ASSERT_NE(at, std::string::npos);
  body.insert(at, "== metrics ==\nmhm_detector_alarms 2\n");
  const std::string path = (dir_ / "with_metrics.mhmi").string();
  std::ofstream(path) << body;

  IncidentBundle bundle;
  std::string error;
  ASSERT_TRUE(parse_incident_file(path, &bundle, &error)) << error;
  EXPECT_FALSE(bundle.truncated);
  ASSERT_EQ(bundle.incident.window.size(), 5u);
  for (const auto& e : bundle.incident.window) EXPECT_EQ(e.row.size(), 4u);
}

TEST_F(IncidentTest, FailedWriteReturnsEmptyAndKeepsNoSummary) {
  // A file-size limit below the bundle size makes write(2) fail with EFBIG
  // part-way through. Run in a child: the limit is process-wide.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const struct rlimit limit = {64, 64};
    ::setrlimit(RLIMIT_FSIZE, &limit);
    Incident incident;
    incident.reason = "alarm_burst";
    incident.cells = 4;
    for (std::uint64_t i = 0; i < 8; ++i) {
      IncidentEntry e;
      e.interval = i;
      e.row.assign(4, 1.0);
      incident.window.push_back(e);
    }
    const bool ok = store_->commit(std::move(incident)).empty() &&
                    store_->summaries().empty() &&
                    store_->total_committed() == 0;
    ::_exit(ok ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "commit reported success (or kept a summary) for a failed write";
}

TEST_F(IncidentTest, SignalLeavesCompleteCrashBundle) {
#if defined(MHM_OBS_DISABLED)
  GTEST_SKIP() << "obs layer compiled out: arm() is a no-op";
#endif
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    IncidentRecorder rec(small_options(), store_, ring_);
    feed(rec, 0, false);
    if (!store_->arm()) ::_exit(77);
    // Past one refresh period, the next interval re-renders the bundle.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    feed(rec, 1, false);
    feed(rec, 2, false);
    std::raise(SIGSEGV);
    ::_exit(1);  // Unreachable: the handler re-raises with SIG_DFL.
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of crashing";
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const std::string crash =
      (dir_ / ("incident-crash-" + std::to_string(pid) + ".mhmi")).string();
  IncidentBundle bundle;
  std::string error;
  ASSERT_TRUE(parse_incident_file(crash, &bundle, &error)) << error;
  EXPECT_FALSE(bundle.truncated);
  EXPECT_EQ(bundle.incident.reason, "crash");
  // Refreshed at interval 1 (the first note past the period), not at arm().
  EXPECT_EQ(bundle.incident.trigger_interval, 1u);
  ASSERT_EQ(bundle.incident.window.size(), 2u);
  EXPECT_EQ(bundle.incident.window.back().row.size(), 4u);
}

TEST_F(IncidentTest, NullStoreRunsTriggerLogicWithoutWriting) {
  // The trigger machinery still runs (the window completes and counts), but
  // with no store attached nothing reaches disk.
  IncidentRecorder rec(small_options(), nullptr, ring_);
  for (std::uint64_t i = 0; i < 10; ++i) feed(rec, i, true);
  EXPECT_EQ(rec.committed(), 1u);
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

}  // namespace
}  // namespace mhm::obs
