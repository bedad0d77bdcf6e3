// The externally visible observability surface: the Chrome trace exporter,
// the loopback HTTP monitoring endpoint, and the black box's context
// bundles. Everything here drives the same code paths an operator would —
// real sockets, real files — at test scale.

#include "obs/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/build_info.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/history.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/model_health.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace mhm::obs {
namespace {

/// Push `row` into `ring` and update the views (each may be null) the way
/// StreamObserver::record does, under the ring's one lock.
void record_row(IntervalRing& ring, const IntervalRow& row,
                DecisionJournal* journal = nullptr,
                ScoreHistory* history = nullptr) {
  std::string note;
  std::lock_guard<std::mutex> lk(ring.mutex());
  ring.push(row);
  if (journal != nullptr) journal->record_locked({}, {}, {}, {}, note);
  if (history != nullptr) history->fold_locked(row);
}

/// Minimal recursive-descent JSON validity checker — enough to assert the
/// exporters emit well-formed documents without pulling in a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    for (++pos_; pos_ < s_.size(); ++pos_) {
      if (s_[pos_] == '\\') { ++pos_; continue; }
      if (s_[pos_] == '"') { ++pos_; return true; }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Enables obs for the test body and restores the previous state after.
class EnabledGuard {
 public:
  EnabledGuard() : was_(enabled()) { set_enabled(true); }
  ~EnabledGuard() { set_enabled(was_); }

 private:
  bool was_;
};

SpanRecord make_span(std::uint64_t id, std::uint64_t parent,
                     std::uint64_t start_ns, std::uint64_t duration_ns,
                     const char* name, std::size_t shard = 0) {
  SpanRecord rec;
  rec.id = id;
  rec.parent_id = parent;
  rec.name = name;
  rec.thread_shard = shard;
  rec.start_ns = start_ns;
  rec.duration_ns = duration_ns;
  return rec;
}

TEST(ChromeTrace, EmptyBufferIsValidJson) {
  if (!enabled()) GTEST_SKIP() << "obs layer compiled out";
  EnabledGuard guard;
  SpanBuffer::instance().clear();
  const std::string json = chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeTrace, CompleteEventsCarryMicrosecondTimes) {
  EnabledGuard guard;
  if (!enabled()) GTEST_SKIP() << "obs layer compiled out";
  SpanBuffer& buf = SpanBuffer::instance();
  buf.clear();
  // Parent opens at 10µs for 5µs; the child nests inside it. The exporter
  // rebases on the earliest start, so the parent lands at ts=0.
  buf.record(make_span(1, 0, 10'000, 5'000, "parent"));
  buf.record(make_span(2, 1, 11'500, 1'000, "child"));

  const std::string json = chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parent\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5.000"), std::string::npos);
  // Child: 1.5µs after the epoch, 1µs long, nested under span id 1.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"id\":2,\"parent\":1}"), std::string::npos);
  // Perfetto needs the process-name metadata event.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  buf.clear();
}

TEST(ChromeTrace, RealSpansNestByParentId) {
  EnabledGuard guard;
  if (!enabled()) GTEST_SKIP() << "obs layer compiled out";
  SpanBuffer& buf = SpanBuffer::instance();
  buf.clear();
  {
    OBS_SCOPE(kPipelineTrain);
    OBS_SCOPE(kPcaFitTopk);
  }
  const std::string json = chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  const auto records = buf.snapshot();
  ASSERT_EQ(records.size(), 2u);
  // The ring holds [inner, outer] completion order; the inner span must
  // point at the outer one.
  EXPECT_EQ(records[0].parent_id, records[1].id);
  std::ostringstream want;
  want << "\"args\":{\"id\":" << records[0].id << ",\"parent\":"
       << records[0].parent_id << "}";
  EXPECT_NE(json.find(want.str()), std::string::npos) << json;
  buf.clear();
}

TEST(ChromeTrace, ConcurrentExportStaysValidAndNestsPerThread) {
  EnabledGuard guard;
  if (!enabled()) GTEST_SKIP() << "obs layer compiled out";
  SpanBuffer& buf = SpanBuffer::instance();
  buf.clear();

  // Four worker threads each emit outer/inner scope pairs, noting the
  // span ids, while two exporter threads serialize the ring — every
  // concurrently exported document must already be well-formed, not just
  // the final one.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kPairsPerWorker = 32;
  /// (outer id, inner id) per pair, per worker.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> pairs(
      kWorkers);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&pairs, w] {
      for (std::size_t i = 0; i < kPairsPerWorker; ++i) {
        prof::Scope outer(prof::Stage::kPipelineTrain);
        prof::Scope inner(prof::Stage::kGmmRestart);
        pairs[w].emplace_back(outer.id(), inner.id());
      }
    });
  }
  for (int e = 0; e < 2; ++e) {
    threads.emplace_back([] {
      for (int i = 0; i < 8; ++i) {
        const std::string json = chrome_trace_json();
        EXPECT_TRUE(JsonChecker(json).valid()) << json;
      }
    });
  }
  for (auto& t : threads) t.join();

  const std::string json = chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"gmm.restart\""), std::string::npos);

  // Parent linkage is per-thread: every inner span must point at the outer
  // span its own worker opened, never at another thread's span.
  const std::vector<SpanRecord> records = buf.snapshot();
  ASSERT_EQ(records.size(), kWorkers * kPairsPerWorker * 2);
  std::size_t inners = 0;
  for (const auto& worker : pairs) {
    ASSERT_EQ(worker.size(), kPairsPerWorker);
    for (const auto& [outer_id, inner_id] : worker) {
      const auto inner =
          std::find_if(records.begin(), records.end(),
                       [&](const SpanRecord& r) { return r.id == inner_id; });
      ASSERT_NE(inner, records.end()) << inner_id;
      EXPECT_STREQ(inner->name, "gmm.restart");
      EXPECT_EQ(inner->parent_id, outer_id) << inner_id;
      ++inners;
    }
  }
  EXPECT_EQ(inners, kWorkers * kPairsPerWorker);
  buf.clear();
}

/// Blocking loopback GET; returns the full response (headers + body).
std::string http_get(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, chunk, sizeof chunk)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string get_path(std::uint16_t port, const std::string& path) {
  return http_get(port, "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Connection: close\r\n\r\n");
}

std::string body_of(const std::string& response) {
  const auto split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

class MonitorServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    if (!enabled()) GTEST_SKIP() << "obs layer compiled out";
    MonitorServer::Options opts;  // port 0: kernel picks a free one
    ASSERT_TRUE(server_.start(opts));
    ASSERT_TRUE(server_.running());
    ASSERT_NE(server_.port(), 0);
  }
  void TearDown() override { server_.stop(); }

  MonitorServer server_;
};

TEST_F(MonitorServerTest, MetricsServesPrometheusText) {
  Registry::instance().counter("test.server.hits", "test counter").add(3);
  const std::string response = get_path(server_.port(), "/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_NE(body.find("# TYPE mhm_test_server_hits counter"),
            std::string::npos);
  EXPECT_NE(body.find("mhm_test_server_hits 3"), std::string::npos);
}

// The model_health.* gauges come from the monitor attached to this server,
// rendered at scrape time: another stream's monitor observing afterwards
// cannot overwrite them, and with none attached there are none.
TEST_F(MonitorServerTest, MetricsRenderModelHealthOfTheAttachedMonitor) {
  std::vector<double> training;
  for (int i = 0; i < 64; ++i) training.push_back(-25.0 + 0.1 * i);
  const auto monitor = [&] {
    return std::make_shared<ModelHealthMonitor>(
        training, std::vector<double>{0.6, 0.4}, ModelHealthOptions{});
  };
  const auto a = monitor();
  const auto b = monitor();
  // A drifts: a sustained 8σ-clamped shift latches CUSUM within a few
  // post-warmup intervals. B stays on the training mean and observes last.
  for (std::uint64_t n = 0; n < 40; ++n) {
    a->observe(-100.0, 0.25, 0, /*alarm=*/false, n);
  }
  ASSERT_EQ(a->status(), ModelHealthStatus::kDrifting);
  server_.set_model_health(a);
  for (std::uint64_t n = 0; n < 40; ++n) {
    b->observe(-21.85, 0.25, 1, /*alarm=*/false, n);
  }
  ASSERT_EQ(b->status(), ModelHealthStatus::kOk);

  std::string body = body_of(get_path(server_.port(), "/metrics"));
  EXPECT_NE(body.find("# TYPE mhm_model_health_status gauge\n"
                      "mhm_model_health_status 1\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("# HELP mhm_model_health_cusum_neg "),
            std::string::npos);
  EXPECT_NE(body.find("\nmhm_model_health_occupancy_0 40\n"),
            std::string::npos);
  EXPECT_NE(body.find("\nmhm_model_health_occupancy_1 0\n"),
            std::string::npos);

  server_.set_model_health(nullptr);
  body = body_of(get_path(server_.port(), "/metrics"));
  EXPECT_EQ(body.find("mhm_model_health_status"), std::string::npos);
  EXPECT_NE(body.find("mhm_model_health_drift_events"), std::string::npos);
}

TEST_F(MonitorServerTest, HealthzReportsLivenessJson) {
  const std::string response = get_path(server_.port(), "/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(body.find("\"last_analysis_age_seconds\""), std::string::npos);
}

TEST_F(MonitorServerTest, StatusSnapshotIsValidJson) {
  const std::string body = body_of(get_path(server_.port(), "/status"));
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"intervals_analyzed\""), std::string::npos);
  EXPECT_NE(body.find("\"alarms\""), std::string::npos);
}

TEST_F(MonitorServerTest, JournalServesTailAsJsonLines) {
  auto ring = std::make_shared<IntervalRing>(16);
  auto journal = std::make_shared<DecisionJournal>(ring, 16, 10, 0, 8);
  for (std::uint64_t i = 0; i < 8; ++i) {
    record_row(*ring,
               IntervalRow{.interval = i,
                           .score = -20.0 - static_cast<double>(i),
                           .threshold = -30.0,
                           .alarm = i == 7},
               journal.get());
  }
  server_.set_journal(journal);

  const std::string response = get_path(server_.port(), "/journal?tail=3");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  const std::string body = body_of(response);
  std::istringstream lines(body);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    ++count;
  }
  EXPECT_EQ(count, 3u);
  // The tail must end with the newest record.
  EXPECT_NE(body.find("\"interval\":7"), std::string::npos);
  EXPECT_NE(body.find("\"alarm\":true"), std::string::npos);

  // Detaching the journal turns the route into a 404.
  server_.set_journal(nullptr);
  EXPECT_NE(get_path(server_.port(), "/journal").find("404"),
            std::string::npos);
}

TEST_F(MonitorServerTest, ModelServesModelHealthJson) {
  // 404 until a monitor is attached.
  EXPECT_NE(get_path(server_.port(), "/model").find("404"),
            std::string::npos);

  std::vector<double> training;
  training.reserve(64);
  for (int i = 0; i < 64; ++i) training.push_back(-25.0 + 0.1 * i);
  ModelHealthOptions opts;
  opts.min_intervals = 8;
  auto monitor = std::make_shared<ModelHealthMonitor>(
      training, std::vector<double>{0.6, 0.4}, opts);
  for (std::uint64_t n = 0; n < 12; ++n) {
    monitor->observe(-22.0, 0.25, n % 2, /*alarm=*/false, n);
  }
  server_.set_model_health(monitor);

  const std::string response = get_path(server_.port(), "/model");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"intervals\":12"), std::string::npos);
  EXPECT_NE(body.find("\"drift\":"), std::string::npos);
  EXPECT_NE(body.find("\"components\":"), std::string::npos);
  EXPECT_NE(body.find("\"heat_row\":"), std::string::npos);

  // Detaching turns the route back into a 404.
  server_.set_model_health(nullptr);
  EXPECT_NE(get_path(server_.port(), "/model").find("404"),
            std::string::npos);
}

TEST_F(MonitorServerTest, TraceServesChromeTraceJson) {
  SpanBuffer::instance().clear();
  SpanBuffer::instance().record(make_span(7, 0, 1'000, 2'000, "served_span"));
  const std::string body = body_of(get_path(server_.port(), "/trace"));
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"served_span\""), std::string::npos);
  SpanBuffer::instance().clear();
}

TEST_F(MonitorServerTest, ProfileServesJsonAndCollapsedFormats) {
  // The profiler needs at least one recorded scope so both formats have
  // content; the route itself is always live (like /version).
  const bool prof_was = prof::prof_enabled();
  prof::set_prof_enabled(true);
  prof::reset();
  {
    OBS_SCOPE(kAnalyze);
    OBS_SCOPE(kScoreProject);
    volatile std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < 2'000'000; ++i) acc = acc + i;
  }

  const std::string response = get_path(server_.port(), "/profile");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"source\":"), std::string::npos);
  EXPECT_NE(body.find("\"stage\":\"score.project\""), std::string::npos);
  EXPECT_NE(body.find("\"attributed_fraction\":"), std::string::npos);

  const std::string collapsed_response =
      get_path(server_.port(), "/profile?format=collapsed");
  EXPECT_NE(collapsed_response.find("200 OK"), std::string::npos);
  EXPECT_NE(collapsed_response.find("text/plain"), std::string::npos);
  EXPECT_NE(body_of(collapsed_response).find("analyze;score.project "),
            std::string::npos)
      << body_of(collapsed_response);

  // An unknown format is the caller's bug: 400 with a JSON error.
  const std::string bad = get_path(server_.port(), "/profile?format=svg");
  EXPECT_NE(bad.find("400"), std::string::npos);
  EXPECT_NE(body_of(bad).find("\"error\":"), std::string::npos);

  prof::reset();
  prof::set_prof_enabled(prof_was);
}

TEST_F(MonitorServerTest, RejectsUnknownRoutesMethodsAndOversizedRequests) {
  EXPECT_NE(get_path(server_.port(), "/nope").find("404"), std::string::npos);
  EXPECT_NE(http_get(server_.port(),
                     "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("405"),
            std::string::npos);
  // 16 KB of headers blows the 8 KB request bound.
  const std::string huge = "GET /metrics HTTP/1.1\r\nX-Pad: " +
                           std::string(16 * 1024, 'a') + "\r\n\r\n";
  EXPECT_NE(http_get(server_.port(), huge).find("431"), std::string::npos);
}

TEST_F(MonitorServerTest, SecondServerOnSamePortFailsCleanly) {
  MonitorServer second;
  MonitorServer::Options opts;
  opts.port = server_.port();
  EXPECT_FALSE(second.start(opts));
  EXPECT_FALSE(second.running());
}

TEST_F(MonitorServerTest, VersionServesBuildInfoJson) {
  // /version needs no attachment: it is always live so fleet tooling can
  // fingerprint a session before deciding which routes to scrape.
  const std::string response = get_path(server_.port(), "/version");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"git\":"), std::string::npos);
  EXPECT_NE(body.find("\"compiler\":"), std::string::npos);
  EXPECT_NE(body.find("\"obs_disabled\":"), std::string::npos);
}

TEST_F(MonitorServerTest, HistoryServesMultiResolutionJson) {
  // 404 until a history is attached.
  EXPECT_NE(get_path(server_.port(), "/history").find("404"),
            std::string::npos);

  HistoryOptions opts;
  opts.raw_capacity = 16;
  opts.bin_capacity = 8;
  opts.fold = 4;
  opts.tiers = 1;
  auto ring = std::make_shared<IntervalRing>(opts.raw_capacity);
  auto history = std::make_shared<ScoreHistory>(ring, opts);
  for (std::uint64_t i = 0; i < 8; ++i) {
    record_row(*ring,
               IntervalRow{.interval = i,
                           .score = -20.0 - static_cast<double>(i),
                           .spe = 0.5,
                           .alarm = i == 7,
                           .model_version = 4},
               nullptr, history.get());
  }
  server_.set_history(history);

  const std::string raw =
      body_of(get_path(server_.port(), "/history?series=score&res=0"));
  EXPECT_TRUE(JsonChecker(raw).valid()) << raw;
  EXPECT_NE(raw.find("\"res\":0"), std::string::npos);
  EXPECT_NE(raw.find("\"interval\":7"), std::string::npos);

  const std::string folded =
      body_of(get_path(server_.port(), "/history?series=all&res=1"));
  EXPECT_TRUE(JsonChecker(folded).valid()) << folded;
  EXPECT_NE(folded.find("\"score_min\":"), std::string::npos);

  const std::string tail =
      body_of(get_path(server_.port(), "/history?series=score&res=0&from=6"));
  EXPECT_EQ(tail.find("\"interval\":5"), std::string::npos);
  EXPECT_NE(tail.find("\"interval\":6"), std::string::npos);

  // Detaching turns the route back into a 404.
  server_.set_history(nullptr);
  EXPECT_NE(get_path(server_.port(), "/history").find("404"),
            std::string::npos);
}

TEST_F(MonitorServerTest, MalformedQueryParamsAnswer400JsonNever500) {
  auto ring = std::make_shared<IntervalRing>(256);
  auto history = std::make_shared<ScoreHistory>(ring, HistoryOptions{});
  auto journal = std::make_shared<DecisionJournal>(ring, 8, 10, 0, 8);
  record_row(*ring, IntervalRow{.interval = 1, .score = -21.0}, journal.get(),
             history.get());
  server_.set_history(history);
  server_.set_journal(journal);

  const char* bad[] = {
      "/history?series=bogus",  "/history?res=99",
      "/history?res=abc",       "/history?from=abc",
      "/history?from=-1",       "/journal?tail=abc",
      "/journal?tail=-1",       "/journal?tail=",
  };
  for (const char* path : bad) {
    const std::string response = get_path(server_.port(), path);
    EXPECT_NE(response.find("400"), std::string::npos) << path << "\n"
                                                       << response;
    EXPECT_EQ(response.find("500"), std::string::npos) << path;
    const std::string body = body_of(response);
    EXPECT_TRUE(JsonChecker(body).valid()) << path << "\n" << body;
    EXPECT_NE(body.find("\"error\":"), std::string::npos) << path;
  }
  server_.set_history(nullptr);
  server_.set_journal(nullptr);
}

TEST_F(MonitorServerTest, IncidentsServesListAndDetail) {
  // 404 until a store is attached.
  EXPECT_NE(get_path(server_.port(), "/incidents").find("404"),
            std::string::npos);

  const std::string dir = std::string(::testing::TempDir()) +
                          "mhm_server_incidents";
  ::mkdir(dir.c_str(), 0755);
  IncidentStore::Options store_opts;
  store_opts.dir = dir;
  auto store = std::make_shared<IncidentStore>(store_opts);
  IncidentOptions inc_opts;
  inc_opts.pre = 1;
  inc_opts.post = 1;
  inc_opts.burst_count = 1;
  inc_opts.burst_window = 4;
  auto ring = std::make_shared<IntervalRing>(1);
  IncidentRecorder recorder(inc_opts, store, ring);
  const double row[2] = {1.0, 2.0};
  for (std::uint64_t i = 0; i < 4; ++i) {
    record_row(*ring, IntervalRow{.interval = i,
                                  .score = -30.0,
                                  .spe = 0.5,
                                  .threshold = -25.0,
                                  .alarm = i == 1,
                                  .model_version = 3});
    recorder.note(row, {}, {});
  }
  ASSERT_EQ(store->total_committed(), 1u);
  server_.set_incidents(store);

  const std::string list = body_of(get_path(server_.port(), "/incidents"));
  EXPECT_TRUE(JsonChecker(list).valid()) << list;
  EXPECT_NE(list.find("\"total\":1"), std::string::npos);
  EXPECT_NE(list.find("\"reason\":\"alarm_burst\""), std::string::npos);

  const std::string one = body_of(get_path(server_.port(), "/incidents/1"));
  EXPECT_TRUE(JsonChecker(one).valid()) << one;
  EXPECT_NE(one.find("\"verdicts\":["), std::string::npos);
  EXPECT_NE(one.find("\"score_hex\":"), std::string::npos);

  // Non-numeric id is the caller's bug (400); a valid-but-unknown id is
  // simply absent (404).
  const std::string bad = get_path(server_.port(), "/incidents/abc");
  EXPECT_NE(bad.find("400"), std::string::npos);
  EXPECT_NE(body_of(bad).find("\"error\":"), std::string::npos);
  EXPECT_NE(get_path(server_.port(), "/incidents/999").find("404"),
            std::string::npos);

  server_.set_incidents(nullptr);
  EXPECT_NE(get_path(server_.port(), "/incidents").find("404"),
            std::string::npos);
}

TEST_F(MonitorServerTest, ConcurrentHistoryAndIncidentScrapes) {
  // Scrapers hammer /history, /incidents, /flush, /model and /metrics while
  // the analysis side keeps observing, appending, committing and refreshing
  // the armed store's crash bundle — the TSan build must see no races. The
  // monitor's sparkline and heat row are views of the same history and
  // recorder, read under their own locks, and the store renders them into
  // its crash and flush bundles: neither path may deadlock.
  auto ring = std::make_shared<IntervalRing>(256);
  auto history = std::make_shared<ScoreHistory>(ring, HistoryOptions{});
  const std::string dir = std::string(::testing::TempDir()) +
                          "mhm_server_incidents_race";
  ::mkdir(dir.c_str(), 0755);
  IncidentStore::Options store_opts;
  store_opts.dir = dir;
  auto store = std::make_shared<IncidentStore>(store_opts);
  IncidentOptions inc_opts;
  inc_opts.pre = 1;
  inc_opts.post = 1;
  inc_opts.burst_count = 1;
  inc_opts.burst_window = 2;
  inc_opts.min_gap = 8;
  auto recorder = std::make_shared<IncidentRecorder>(inc_opts, store, ring);
  auto monitor = std::make_shared<ModelHealthMonitor>(
      std::vector<double>{-21.0, -20.0, -19.0}, std::vector<double>{1.0},
      ModelHealthOptions{});
  monitor->attach_views(ring, 256, recorder);
  server_.set_history(history);
  server_.set_incidents(store);
  server_.set_model_health(monitor);
  // serve's context provider: the crash and /flush bundles carry the
  // monitor's JSON, whose heat row reads the recorder being noted into.
  ASSERT_TRUE(store->arm([monitor] {
    return "== model_health ==\n" + model_health_json(monitor->snapshot()) +
           "\n";
  }));

  std::vector<std::thread> scrapers;
  for (const char* path : {"/history?series=all&res=0", "/incidents",
                           "/incidents/1", "/flush", "/model", "/metrics"}) {
    scrapers.emplace_back([this, path] {
      for (int i = 0; i < 25; ++i) (void)get_path(server_.port(), path);
    });
  }
  const double row[2] = {1.0, 2.0};
  for (std::uint64_t i = 0; i < 200; ++i) {
    monitor->observe(-20.0, 0.5, 0, i % 16 == 0, i);
    record_row(*ring,
               IntervalRow{.interval = i,
                           .score = -20.0,
                           .spe = 0.5,
                           .threshold = -25.0,
                           .alarm = i % 16 == 0,
                           .model_version = 3},
               nullptr, history.get());
    recorder->note(row, {}, {});
    // Past one refresh period: the next note re-renders the crash bundle.
    if (i == 100) std::this_thread::sleep_for(std::chrono::milliseconds(260));
  }
  for (auto& t : scrapers) t.join();
  store->disarm();
  EXPECT_GT(store->total_committed(), 0u);
  EXPECT_EQ(history->total_appended(), 200u);
  const ModelHealthSnapshot snap = monitor->snapshot();
  EXPECT_EQ(snap.intervals, 200u);
  EXPECT_EQ(snap.recent_scores.size(), 200u);
  EXPECT_EQ(snap.last_row, (std::vector<double>{1.0, 2.0}));
  server_.set_history(nullptr);
  server_.set_incidents(nullptr);
  server_.set_model_health(nullptr);
}

/// A fresh per-test directory under the gtest temp dir.
std::string test_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = std::string(::testing::TempDir()) + "mhm_" +
                          info->test_suite_name() + "_" + info->name();
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

TEST(BlackBoxTest, FlushWritesParseableContextBundle) {
  EnabledGuard guard;
  if (!enabled()) GTEST_SKIP() << "obs layer compiled out";
  IncidentStore::Options opts;
  opts.dir = test_dir();
  auto store = std::make_shared<IncidentStore>(opts);
  IncidentOptions inc_opts;
  inc_opts.pre = 2;
  auto ring = std::make_shared<IntervalRing>(1);
  IncidentRecorder recorder(inc_opts, store, ring);
  const std::vector<double> row = {1.0, 2.0, 3.0};
  for (std::uint64_t i = 39; i <= 41; ++i) {
    record_row(*ring, IntervalRow{.interval = i,
                                  .score = -20.0,
                                  .spe = 0.5,
                                  .threshold = -25.0,
                                  .model_version = 5});
    recorder.note(row, {}, {});
  }
  ASSERT_TRUE(store->arm([] { return std::string("== journal tail=0 ==\n"); }));
  EXPECT_TRUE(store->armed());
  const std::string crash =
      opts.dir + "/incident-crash-" + std::to_string(::getpid()) + ".mhmi";
  struct stat st;
  EXPECT_EQ(::stat(crash.c_str(), &st), 0);  // Pre-opened, still empty.
  EXPECT_EQ(st.st_size, 0);

  const std::string path = store->flush("unit_test");
  ASSERT_FALSE(path.empty());
  store->disarm();
  EXPECT_FALSE(store->armed());
  // No signal fired: the pre-opened crash file is empty clutter, removed.
  EXPECT_NE(::stat(crash.c_str(), &st), 0);

  IncidentBundle bundle;
  std::string error;
  ASSERT_TRUE(parse_incident_file(path, &bundle, &error)) << error;
  EXPECT_FALSE(bundle.truncated);
  EXPECT_EQ(bundle.incident.reason, "unit_test");
  EXPECT_EQ(bundle.incident.trigger_interval, 41u);
  EXPECT_EQ(bundle.incident.model_version, 5u);
  ASSERT_EQ(bundle.incident.window.size(), 3u);
  EXPECT_EQ(bundle.incident.window.back().row, row);

  std::ifstream file(path);
  std::stringstream text;
  text << file.rdbuf();
  const std::string body = text.str();
  for (const char* section : {"== profile ==", "== metrics ==",
                              "== trace ==", "== journal tail=0 =="}) {
    EXPECT_NE(body.find(section), std::string::npos) << section;
  }
  EXPECT_EQ(body.rfind("== end ==\n"), body.size() - 10);
  // Committed like any bundle: /incidents lists it.
  ASSERT_EQ(store->summaries().size(), 1u);
  EXPECT_EQ(store->summaries()[0].reason, "unit_test");
}

TEST(BlackBoxTest, SecondArmFailsUntilDisarmed) {
  EnabledGuard guard;
  if (!enabled()) GTEST_SKIP() << "obs layer compiled out";
  IncidentStore::Options opts;
  opts.dir = test_dir();
  IncidentStore first(opts);
  IncidentStore second(opts);
  EXPECT_EQ(first.flush("flush"), "");  // Unarmed: nothing to flush.
  ASSERT_TRUE(first.arm());
  EXPECT_FALSE(first.arm());
  EXPECT_FALSE(second.arm());  // One black box per process.
  first.disarm();
  EXPECT_TRUE(second.arm());
  second.disarm();
}

TEST_F(MonitorServerTest, FlushCommitsBundleThroughArmedStore) {
  const std::string unarmed = get_path(server_.port(), "/flush");
  EXPECT_NE(unarmed.find("503"), std::string::npos) << unarmed;

  IncidentStore::Options opts;
  opts.dir = test_dir();
  IncidentStore store(opts);
  ASSERT_TRUE(store.arm());
  const std::string response = get_path(server_.port(), "/flush");
  store.disarm();
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  const std::string body = body_of(response);
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  const std::string key = "\"path\":\"";
  const std::size_t at = body.find(key);
  ASSERT_NE(at, std::string::npos) << body;
  const std::string path =
      body.substr(at + key.size(), body.find('"', at + key.size()) -
                                       (at + key.size()));
  IncidentBundle bundle;
  std::string error;
  ASSERT_TRUE(parse_incident_file(path, &bundle, &error)) << error;
  EXPECT_FALSE(bundle.truncated);
  EXPECT_EQ(bundle.incident.reason, "flush");
}

TEST(MonitorServerDisabled, StartFailsWhenObsOff) {
  const bool was = enabled();
  set_enabled(false);
  // Runtime-disabled (or compiled out): the server refuses to start, so a
  // pipeline with MHM_OBS=0 never opens a socket.
  MonitorServer server;
  EXPECT_FALSE(server.start(MonitorServer::Options{}));
  EXPECT_FALSE(server.running());
  set_enabled(was);
}

}  // namespace
}  // namespace mhm::obs
