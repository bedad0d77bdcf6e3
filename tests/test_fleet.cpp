// Fleet layer: spec parsing, the sharded runner's determinism contract,
// aggregation rollups + top-K ranking, the /fleet route, and the
// O(shards) metric-cardinality guarantee. Everything runs at fast test
// scale against one shared trained pipeline.

#include "fleet/runner.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "engine/engine.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/spec.hpp"
#include "obs/export.hpp"
#include "obs/history.hpp"
#include "obs/incident.hpp"
#include "obs/metrics.hpp"
#include "obs/model_health.hpp"
#include "obs/server.hpp"
#include "pipeline/experiment.hpp"

namespace mhm::fleet {
namespace {

// --- spec parsing -----------------------------------------------------

TEST(FleetSpec, ParsesFullFile) {
  const FleetSpec spec = FleetSpec::parse_string(
      "# a fleet\n"
      "devices = 500\n"
      "shards = 9\n"
      "intervals = 40\n"
      "seed = 11\n"
      "top_k = 3\n"
      "health_refresh = 5\n"
      "journal_capacity = 16\n"
      "health_max_events = 1\n"
      "session_bytes_budget = 32768\n"
      "[archetype.steady]\n"
      "weight = 0.75\n"
      "jitter = 1.5\n"
      "[archetype.rootkit]\n"
      "weight = 0.25\n"
      "attack = rootkit\n"
      "trigger = 12\n");
  EXPECT_EQ(spec.devices, 500u);
  EXPECT_EQ(spec.shards, 9u);
  EXPECT_EQ(spec.resolved_shards(), 9u);
  EXPECT_EQ(spec.intervals, 40u);
  EXPECT_EQ(spec.seed, 11u);
  EXPECT_EQ(spec.top_k, 3u);
  EXPECT_EQ(spec.health_refresh, 5u);
  EXPECT_EQ(spec.journal_capacity, 16u);
  EXPECT_EQ(spec.health_max_events, 1u);
  EXPECT_EQ(spec.session_bytes_budget, 32768u);
  ASSERT_EQ(spec.archetypes.size(), 2u);
  EXPECT_EQ(spec.archetypes[0].name, "steady");
  EXPECT_DOUBLE_EQ(spec.archetypes[0].weight, 0.75);
  EXPECT_DOUBLE_EQ(spec.archetypes[0].jitter_scale, 1.5);
  EXPECT_TRUE(spec.archetypes[0].attack.empty());
  EXPECT_EQ(spec.archetypes[1].name, "rootkit");
  EXPECT_EQ(spec.archetypes[1].attack, "rootkit");
  EXPECT_EQ(spec.archetypes[1].trigger_interval, 12u);
}

TEST(FleetSpec, DefaultsAndShardResolution) {
  const FleetSpec spec = FleetSpec::parse_string("devices = 100\n");
  ASSERT_EQ(spec.archetypes.size(), 1u);  // Implicit all-normal fleet.
  EXPECT_EQ(spec.archetypes[0].name, "steady");
  EXPECT_EQ(spec.resolved_shards(), 1u);

  FleetSpec by_size;
  by_size.devices = 1000;
  EXPECT_EQ(by_size.resolved_shards(), 4u);  // ceil(1000/256)
  by_size.devices = 100000;
  EXPECT_EQ(by_size.resolved_shards(), 64u);  // Clamped.
  by_size.shards = 7;
  EXPECT_EQ(by_size.resolved_shards(), 7u);  // Explicit wins.
}

TEST(FleetSpec, RejectsMalformedInput) {
  EXPECT_THROW(FleetSpec::parse_string("frobnicate = 1\n"), ConfigError);
  // Retired key: the health sparkline is the score history's raw ring.
  EXPECT_THROW(FleetSpec::parse_string("health_history = 0\n"), ConfigError);
  EXPECT_THROW(FleetSpec::parse_string("[frobnicate]\n"), ConfigError);
  EXPECT_THROW(FleetSpec::parse_string("[archetype.bad name]\n"),
               ConfigError);
  EXPECT_THROW(FleetSpec::parse_string("devices\n"), ConfigError);
  EXPECT_THROW(FleetSpec::parse_string("devices = many\n"), ConfigError);
  EXPECT_THROW(FleetSpec::parse_string("devices = 0\n"), ConfigError);
  EXPECT_THROW(FleetSpec::parse_string("[archetype.a]\nweight = -1\n"),
               ConfigError);
  EXPECT_THROW(FleetSpec::parse_string("[archetype.a]\nweight = 0\n"),
               ConfigError);
  EXPECT_THROW(FleetSpec::load("/nonexistent/fleet.ini"), ConfigError);
}

// --- shared fixture ---------------------------------------------------

FleetSpec small_spec() {
  FleetSpec spec;
  spec.devices = 96;
  spec.intervals = 16;
  spec.seed = 7;
  spec.top_k = 5;
  spec.health_refresh = 4;
  ArchetypeSpec steady;
  steady.name = "steady";
  steady.weight = 0.8;
  spec.archetypes.push_back(steady);
  ArchetypeSpec attacked;
  attacked.name = "shellcode";
  attacked.weight = 0.2;
  attacked.attack = "shellcode";
  attacked.trigger_interval = 6;
  spec.archetypes.push_back(attacked);
  return spec;
}

class FleetTest : public ::testing::Test {
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

  static FleetRunner make_runner(const FleetSpec& spec) {
    return FleetRunner(spec, pipeline::fast_test_config(),
                       pipe_->detector->snapshot());
  }

  static pipeline::TrainedPipeline* pipe_;
};

pipeline::TrainedPipeline* FleetTest::pipe_ = nullptr;

void expect_same_snapshot(const FleetSnapshot& a, const FleetSnapshot& b) {
  EXPECT_EQ(a.devices, b.devices);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.intervals, b.intervals);
  EXPECT_EQ(a.alarms, b.alarms);
  EXPECT_EQ(a.devices_ok, b.devices_ok);
  EXPECT_EQ(a.devices_drifting, b.devices_drifting);
  EXPECT_EQ(a.devices_miscalibrated, b.devices_miscalibrated);
  ASSERT_EQ(a.top.size(), b.top.size());
  for (std::size_t i = 0; i < a.top.size(); ++i) {
    EXPECT_EQ(a.top[i].device, b.top[i].device);
    EXPECT_EQ(a.top[i].archetype, b.top[i].archetype);
    EXPECT_EQ(a.top[i].severity, b.top[i].severity);  // Bit-identical.
    EXPECT_EQ(a.top[i].alarms, b.top[i].alarms);
    EXPECT_EQ(a.top[i].status, b.top[i].status);
  }
  ASSERT_EQ(a.shard_summaries.size(), b.shard_summaries.size());
  for (std::size_t s = 0; s < a.shard_summaries.size(); ++s) {
    EXPECT_EQ(a.shard_summaries[s].devices, b.shard_summaries[s].devices);
    EXPECT_EQ(a.shard_summaries[s].intervals,
              b.shard_summaries[s].intervals);
    EXPECT_EQ(a.shard_summaries[s].alarms, b.shard_summaries[s].alarms);
    // intervals_per_sec is wall clock: explicitly outside the contract.
  }
  ASSERT_EQ(a.incident_groups.size(), b.incident_groups.size());
  for (std::size_t g = 0; g < a.incident_groups.size(); ++g) {
    EXPECT_EQ(a.incident_groups[g].first_interval,
              b.incident_groups[g].first_interval);
    EXPECT_EQ(a.incident_groups[g].last_interval,
              b.incident_groups[g].last_interval);
    EXPECT_EQ(a.incident_groups[g].devices, b.incident_groups[g].devices);
    EXPECT_EQ(a.incident_groups[g].marks, b.incident_groups[g].marks);
    EXPECT_EQ(a.incident_groups[g].archetypes,
              b.incident_groups[g].archetypes);
  }
}

// Same spec + seed must produce bit-identical aggregate state at any
// thread count: shard layout comes from the spec, rounds are barriers,
// and every per-device update is owner-only.
TEST_F(FleetTest, DeterministicAcrossThreadCounts) {
  const std::size_t before = configured_threads();
  set_global_threads(1);
  FleetRunner serial = make_runner(small_spec());
  serial.run_all();
  const FleetSnapshot serial_snap = serial.aggregator().snapshot();

  set_global_threads(3);
  FleetRunner threaded = make_runner(small_spec());
  threaded.run_all();
  const FleetSnapshot threaded_snap = threaded.aggregator().snapshot();
  set_global_threads(before);

  EXPECT_GT(serial_snap.intervals, 0u);
  expect_same_snapshot(serial_snap, threaded_snap);
}

TEST_F(FleetTest, TopKRanksAttackedStreamsFirst) {
  FleetRunner runner = make_runner(small_spec());
  runner.run_all();
  EXPECT_TRUE(runner.done());
  const FleetSnapshot snap = runner.aggregator().snapshot();

  EXPECT_EQ(snap.devices, 96u);
  EXPECT_EQ(snap.intervals, 96u * 16u);
  EXPECT_GT(snap.alarms, 0u);  // The shellcode slice must fire.
  EXPECT_EQ(snap.devices_ok + snap.devices_drifting +
                snap.devices_miscalibrated,
            snap.devices);

  ASSERT_LE(snap.top.size(), small_spec().top_k);
  ASSERT_FALSE(snap.top.empty());
  for (std::size_t i = 1; i < snap.top.size(); ++i) {
    const TopStream& prev = snap.top[i - 1];
    const TopStream& cur = snap.top[i];
    EXPECT_TRUE(prev.severity > cur.severity ||
                (prev.severity == cur.severity && prev.device < cur.device))
        << "top-K not ordered at " << i;
  }
  EXPECT_EQ(snap.top.front().archetype, "shellcode");
  EXPECT_GT(snap.top.front().severity, 0.0);
  EXPECT_GT(snap.top.front().alarms, 0u);
}

TEST_F(FleetTest, RunRoundsIsResumable) {
  FleetRunner runner = make_runner(small_spec());
  EXPECT_EQ(runner.run_rounds(3), 3u * 96u);
  EXPECT_FALSE(runner.done());
  EXPECT_EQ(runner.rounds_completed(), 3u);
  EXPECT_EQ(runner.run_all(), 13u * 96u);
  EXPECT_TRUE(runner.done());
  EXPECT_EQ(runner.run_rounds(4), 0u);  // Interval budget exhausted.
}

// --- JSON + /fleet route ----------------------------------------------

/// Tiny structural check: balanced braces/brackets outside strings. The
/// full recursive validation lives in test_obs_server.cpp; here we guard
/// the fleet document's shape and content.
bool roughly_valid_json(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string && !s.empty() && s.front() == '{' &&
         s.back() == '}';
}

TEST_F(FleetTest, JsonCarriesRollupAndTop) {
  FleetRunner runner = make_runner(small_spec());
  runner.run_all();
  const std::string json = runner.json();
  EXPECT_TRUE(roughly_valid_json(json)) << json;
  EXPECT_NE(json.find("\"devices\":96"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rollup\":{\"ok\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards_detail\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"top\":[{\"device\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"archetype\":\"shellcode\""), std::string::npos)
      << json;
}

TEST_F(FleetTest, IncidentGroupsChainCoTemporalAlarmWaves) {
  FleetRunner runner = make_runner(small_spec());
  runner.run_all();
  const FleetSnapshot snap = runner.aggregator().snapshot();

  // The shellcode slice (~19 devices) triggers at the same interval, so its
  // marks must chain into co-temporal groups rather than 19 singletons.
  ASSERT_FALSE(snap.incident_groups.empty());
  std::size_t devices = 0;
  std::uint64_t marks = 0;
  for (const IncidentGroup& g : snap.incident_groups) {
    EXPECT_LE(g.first_interval, g.last_interval);
    EXPECT_GE(g.devices, 1u);
    EXPECT_GE(g.marks, g.devices);
    ASSERT_FALSE(g.archetypes.empty());
    devices += g.devices;
    marks += g.marks;
  }
  EXPECT_GT(devices, 1u);
  EXPECT_GE(marks, devices);
  bool saw_shellcode = false;
  for (const IncidentGroup& g : snap.incident_groups) {
    for (const std::string& name : g.archetypes) {
      if (name == "shellcode") saw_shellcode = true;
    }
  }
  EXPECT_TRUE(saw_shellcode);

  // And the JSON surface carries the groups for /fleet scrapers.
  const std::string json = runner.json();
  EXPECT_NE(json.find("\"incident_groups\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"marks\":"), std::string::npos) << json;
}

std::string get_path(std::uint16_t port, const std::string& path) {
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
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
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

TEST_F(FleetTest, ServerServesFleetRoute) {
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  FleetRunner runner = make_runner(small_spec());
  runner.run_all();

  obs::MonitorServer server;
  ASSERT_TRUE(server.start({}));
  // Before a provider is attached the route 404s instead of serving junk.
  EXPECT_NE(get_path(server.port(), "/fleet").find("404"),
            std::string::npos);

  server.set_fleet([&runner] { return runner.json(); });
  const std::string response = get_path(server.port(), "/fleet");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const std::size_t split = response.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  std::string body = response.substr(split + 4);
  while (!body.empty() && (body.back() == '\n' || body.back() == '\r')) {
    body.pop_back();
  }
  EXPECT_TRUE(roughly_valid_json(body)) << body;
  EXPECT_NE(body.find("\"rollup\""), std::string::npos);
  server.stop();
}

TEST_F(FleetTest, ShutdownBundleCarriesFleetSection) {
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  FleetRunner runner = make_runner(small_spec());
  runner.run_all();

  const auto dir =
      std::filesystem::temp_directory_path() / "mhm_fleet_black_box_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  obs::IncidentStore::Options opts;
  opts.dir = dir.string();
  obs::IncidentStore store(opts);
  ASSERT_TRUE(store.arm(
      [&runner] { return "== fleet ==\n" + runner.json() + "\n"; }));
  const std::string path = store.flush("shutdown");
  store.disarm();
  ASSERT_FALSE(path.empty());

  obs::IncidentBundle bundle;
  std::string error;
  ASSERT_TRUE(obs::parse_incident_file(path, &bundle, &error)) << error;
  EXPECT_FALSE(bundle.truncated);
  EXPECT_EQ(bundle.incident.reason, "shutdown");
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("== fleet =="), std::string::npos);
  EXPECT_NE(text.find("\"rollup\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

// --- cardinality + concurrency ----------------------------------------

// The whole point of the aggregator: a 1k-device fleet may only add
// fleet/shard-level series to the registry, never per-device ones.
TEST_F(FleetTest, RegistryCardinalityStaysShardLevel) {
  // Warm-register every fixed shared-name series (fleet gauges, session /
  // journal / model-health gauges) with a tiny single-shard run, so the
  // delta below counts only shard-indexed growth. Without this the test
  // would be sensitive to whether earlier tests ran in the same process.
  {
    FleetSpec warm = small_spec();
    warm.devices = 8;
    warm.intervals = 2;
    warm.health_refresh = 1;
    FleetRunner warmup = make_runner(warm);
    warmup.run_all();
  }
  FleetSpec spec = small_spec();
  spec.devices = 1000;
  spec.intervals = 4;
  spec.health_refresh = 2;
  const std::size_t before = obs::Registry::instance().snapshot().size();
  FleetRunner runner = make_runner(spec);
  runner.run_all();  // Folds refresh the fleet-level gauges too.
  const std::size_t after = obs::Registry::instance().snapshot().size();
  const std::size_t delta = after - before;
  // Only shard-indexed series (3 per shard: intervals_scored,
  // intervals_per_sec, cycles_per_interval; shard 0's were registered by
  // the warm-up) may appear for the 1000 new devices — never O(devices).
  EXPECT_LE(delta, 3 * runner.shard_count());
  EXPECT_LT(delta, spec.devices / 10);
}

// Scrapes (snapshot/json) must be safe while the runner is mid-round —
// this is the exact interleaving the obs serve thread produces, and the
// TSan CI job runs this test to prove it.
TEST_F(FleetTest, ConcurrentScrapesDuringRun) {
  FleetSpec spec = small_spec();
  spec.intervals = 24;
  FleetRunner runner = make_runner(spec);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string json = runner.json();
      EXPECT_TRUE(roughly_valid_json(json));
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Start the run only once the scraper is looping: a small fleet's run can
  // finish before a freshly started thread is first scheduled.
  while (scrapes.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  runner.run_all();
  stop.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0u);
  EXPECT_EQ(runner.aggregator().snapshot().intervals, 96u * 24u);
}

// --- per-session memory knobs -----------------------------------------

TEST(FleetSessionBudget, FleetPresetShrinksObservationState) {
  const auto opts = engine::SessionOptions::fleet_preset();
  EXPECT_EQ(opts.journal_capacity, 32u);
  EXPECT_EQ(opts.top_cells, 0u);
  EXPECT_EQ(opts.health_max_events, 4u);
  EXPECT_EQ(opts.history_raw, 32u);
}

TEST_F(FleetTest, FleetPresetSessionKeepsNoHistoryOrRows) {
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  engine::DetectionEngine engine(pipe_->detector->snapshot());
  engine::Session session =
      engine.new_session(engine::SessionOptions::fleet_preset());
  std::vector<double> row;
  for (std::size_t i = 0; i < pipe_->validation.size(); ++i) {
    pipe_->validation[i].as_vector_into(row);
    session.analyze(row, i);
  }
  const auto health = session.model_health();
  if (health == nullptr) GTEST_SKIP() << "obs layer compiled out";
  const obs::ModelHealthSnapshot snap = health->snapshot();
  EXPECT_GT(snap.intervals, 0u);
  // The sparkline is the session's 32-slot score-history ring, not a copy.
  ASSERT_EQ(snap.recent_scores.size(), 32u);
  const auto raw = session.score_history()->raw_snapshot();
  ASSERT_EQ(raw.size(), snap.recent_scores.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(snap.recent_scores[i], raw[i].score) << i;
  }
  // No incident recorder, so no heat row.
  EXPECT_TRUE(snap.last_row.empty());
  EXPECT_LE(snap.events.size(), 4u);  // max_events = 4
}

// --- ephemeral env server ---------------------------------------------

TEST(FleetEnvServer, ObsPortZeroBindsEphemeralPort) {
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  if (obs::MonitorServer::instance().running()) {
    GTEST_SKIP() << "process-wide server already started by another test";
  }
  ::setenv("MHM_OBS_PORT", "0", 1);
  EXPECT_TRUE(obs::MonitorServer::ensure_env_server());
  EXPECT_TRUE(obs::MonitorServer::instance().running());
  EXPECT_NE(obs::MonitorServer::instance().port(), 0);
  const std::string response =
      get_path(obs::MonitorServer::instance().port(), "/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  obs::MonitorServer::instance().stop();
  ::unsetenv("MHM_OBS_PORT");
}

}  // namespace
}  // namespace mhm::fleet
