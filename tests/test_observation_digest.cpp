// Observation-state determinism: one FNV-1a digest per session over
// everything the observation layer keeps for a stream — the decision
// journal, the model-health snapshot, the score history (raw ring and
// folded tiers) and the verdict / cell / row sections of every committed
// incident bundle. The golden verdict pins (test_engine) cover what was
// decided; these pins cover what was *recorded*, so a refactor of
// StreamObserver::record or of the shard scatter cannot silently drift.
//
// What the digest leaves out, by construction:
//  - Verdict::analysis_time and every other wall-clock reading (none of the
//    hashed structures carry one);
//  - bundle `build.*` header lines and everything from `== profile ==` on,
//    whose values vary by build and by timing;
//  - the model-health snapshot's `recent_scores` and heat row, which are
//    views of the score history's raw ring and the incident recorder's
//    rows — both hashed here at their source.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "attacks/attacks.hpp"
#include "common/parallel.hpp"
#include "engine/engine.hpp"
#include "obs/history.hpp"
#include "obs/incident.hpp"
#include "obs/model_health.hpp"
#include "obs/obs.hpp"
#include "pipeline/experiment.hpp"

namespace mhm {
namespace {

namespace fs = std::filesystem;

/// FNV-1a, 64-bit, over raw bytes. Doubles hash by bit pattern.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void f64s(const std::vector<double>& v) {
    u64(v.size());
    for (const double x : v) f64(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void hash_journal(Fnv1a& h, const obs::DecisionJournal& journal) {
  const std::vector<obs::DecisionRecord> records = journal.snapshot();
  h.u64(records.size());
  for (const obs::DecisionRecord& r : records) {
    h.u64(r.interval_index);
    h.u64(r.phase);
    h.f64s(r.reduced_coords);
    h.f64(r.log10_density);
    h.f64(r.threshold);
    h.u64(r.alarm);
    h.u64(r.nearest_pattern);
    h.u64(r.model_version);
    h.u64(r.top_cells.size());
    for (const obs::CellContribution& c : r.top_cells) {
      h.u64(c.cell);
      h.f64(c.observed);
      h.f64(c.expected);
      h.f64(c.z_score);
    }
    h.str(r.note);
  }
}

void hash_health(Fnv1a& h, const obs::ModelHealthMonitor* monitor) {
  h.u64(monitor != nullptr);
  if (monitor == nullptr) return;
  const obs::ModelHealthSnapshot s = monitor->snapshot();
  h.u64(static_cast<std::uint64_t>(s.status));
  h.u64(s.intervals);
  h.u64(s.alarms);
  for (const double v :
       {s.alarm_rate, s.expected_p, s.wilson.low, s.wilson.high, s.cusum_pos,
        s.cusum_neg, s.cusum_threshold, s.score_mean, s.score_stddev,
        s.score_q05, s.score_q50, s.score_q95, s.train_mean, s.train_stddev,
        s.train_q05, s.train_q50, s.train_q95, s.spe_last, s.spe_q50,
        s.spe_q95}) {
    h.f64(v);
  }
  h.u64(s.calibrated);
  h.u64(s.cusum_fired);
  h.f64s(s.component_weights);
  h.u64(s.component_occupancy.size());
  for (const std::uint64_t o : s.component_occupancy) h.u64(o);
  h.u64(s.events.size());
  for (const obs::ModelHealthEvent& e : s.events) {
    h.u64(e.interval);
    h.u64(static_cast<std::uint64_t>(e.from));
    h.u64(static_cast<std::uint64_t>(e.to));
    h.str(e.detail);
  }
}

void hash_history(Fnv1a& h, const obs::ScoreHistory* history) {
  h.u64(history != nullptr);
  if (history == nullptr) return;
  const std::vector<obs::HistorySample> raw = history->raw_snapshot();
  h.u64(raw.size());
  for (const obs::HistorySample& s : raw) {
    h.u64(s.interval);
    h.f64(s.score);
    h.f64(s.spe);
    h.u64(s.alarm);
    h.u64(s.status);
    h.u64(s.model_version);
  }
  h.u64(history->tiers());
  for (std::size_t t = 1; t <= history->tiers(); ++t) {
    const std::vector<obs::HistoryBin> bins = history->tier_snapshot(t);
    h.u64(bins.size());
    for (const obs::HistoryBin& b : bins) {
      h.u64(b.first_interval);
      h.u64(b.last_interval);
      h.u64(b.count);
      h.u64(b.alarms);
      h.u64(b.worst_status);
      for (const double v : {b.score_min, b.score_mean, b.score_max,
                             b.spe_min, b.spe_mean, b.spe_max}) {
        h.f64(v);
      }
    }
  }
}

/// The verdicts, cells and rows sections of every bundle in `dir`, in file
/// name order (bundle ids are per-store, so the order is deterministic).
void hash_bundles(Fnv1a& h, const fs::path& dir) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".mhmi") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  h.u64(paths.size());
  for (const fs::path& path : paths) {
    h.str(path.filename().string());
    std::ifstream in(path);
    std::string line;
    bool hashing = false;
    while (std::getline(in, line)) {
      if (line == "== verdicts ==") hashing = true;
      if (line == "== profile ==") break;
      if (hashing) h.str(line);
    }
  }
}

/// One observed session: its incident store writes into its own directory
/// so bundle ids and files never interleave with another session's.
struct ObservedSession {
  ObservedSession(const engine::DetectionEngine& engine,
                  const engine::SessionOptions& options, fs::path bundle_dir)
      : dir(std::move(bundle_dir)), session(engine.new_session(options)) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    obs::IncidentStore::Options store_options;
    store_options.dir = dir.string();
    obs::IncidentOptions trigger;
    trigger.min_gap = 32;  // Several bundles per 200-interval stream.
    session.attach_incidents(
        trigger, std::make_shared<obs::IncidentStore>(store_options));
  }

  std::uint64_t digest() const {
    Fnv1a h;
    hash_journal(h, session.journal());
    hash_health(h, session.model_health().get());
    hash_history(h, session.score_history().get());
    hash_bundles(h, dir);
    return h.value();
  }

  fs::path dir;
  engine::Session session;
};

constexpr const char* kStreams[] = {"normal", "app_addition", "shellcode"};

/// Pinned digests, [stream][0 = default options, 1 = fleet_preset()].
constexpr std::uint64_t kPinned[3][2] = {
    {0x4998c75120b00ef3ULL, 0x852893790866ceb0ULL},
    {0x6d76238ecf80487eULL, 0x9cc2bbadf91864fcULL},
    {0x251795f8c7c3eefaULL, 0x1bdfcaa229bb1979ULL},
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The same three streams as the golden verdict pins in test_engine.
class ObservationDigest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipe_ = new pipeline::TrainedPipeline(pipeline::train_pipeline(
        pipeline::fast_test_config(), pipeline::fast_test_plan(),
        pipeline::fast_test_detector_options()));
    streams_ = new std::vector<HeatMapTrace>();
    const sim::SystemConfig cfg = pipeline::fast_test_config();
    streams_->push_back(
        pipeline::run_scenario(cfg, nullptr, 0, 2 * kSecond, nullptr, 4242)
            .maps);
    attacks::AppAdditionAttack app;
    streams_->push_back(pipeline::run_scenario(cfg, &app, 1 * kSecond,
                                               2 * kSecond, nullptr, 77)
                            .maps);
    attacks::ShellcodeAttack shellcode("bitcount");
    streams_->push_back(pipeline::run_scenario(cfg, &shellcode, 1 * kSecond,
                                               2 * kSecond, nullptr, 42)
                            .maps);
  }
  static void TearDownTestSuite() {
    delete streams_;
    streams_ = nullptr;
    delete pipe_;
    pipe_ = nullptr;
  }

  void SetUp() override {
#if defined(MHM_OBS_DISABLED)
    GTEST_SKIP() << "observation state is compiled out";
#else
    if (!obs::enabled()) GTEST_SKIP() << "observability disabled (MHM_OBS=0)";
#endif
    root_ = fs::temp_directory_path() /
            ("mhm_obs_digest_" + std::to_string(::getpid()));
  }
  void TearDown() override { fs::remove_all(root_); }

  static engine::SessionOptions options_for(int preset) {
    return preset == 0 ? engine::SessionOptions{}
                       : engine::SessionOptions::fleet_preset();
  }

  /// Digest of one serial session over stream `s`; `bundles` (optional)
  /// receives the number of incident bundles it committed.
  std::uint64_t serial_digest(std::size_t s, int preset,
                              std::uint64_t* bundles = nullptr) const {
    const engine::DetectionEngine engine = pipe_->make_engine();
    ObservedSession obs(engine, options_for(preset), root_ / "serial");
    for (const HeatMap& m : (*streams_)[s]) obs.session.analyze(m);
    if (bundles != nullptr) {
      *bundles = obs.session.incident_recorder()->committed();
    }
    return obs.digest();
  }

  /// Digests of `batch` sessions fed stream `s` in lockstep through
  /// analyze_shard: every lane scores the same map each round.
  std::vector<std::uint64_t> shard_digests(std::size_t s, int preset,
                                           std::size_t batch) const {
    const engine::DetectionEngine engine = pipe_->make_engine();
    std::vector<std::unique_ptr<ObservedSession>> lanes;
    std::vector<engine::Session*> sessions;
    for (std::size_t b = 0; b < batch; ++b) {
      lanes.push_back(std::make_unique<ObservedSession>(
          engine, options_for(preset),
          root_ / ("lane" + std::to_string(b))));
      sessions.push_back(&lanes.back()->session);
    }
    engine::ShardWorkspace ws;
    std::vector<std::span<const double>> raws(batch);
    std::vector<std::uint64_t> idx(batch);
    for (const HeatMap& m : (*streams_)[s]) {
      const std::vector<double> row = m.as_vector();
      std::fill(raws.begin(), raws.end(), std::span<const double>(row));
      std::fill(idx.begin(), idx.end(), m.interval_index);
      engine.analyze_shard(sessions, raws, idx, ws);
    }
    std::vector<std::uint64_t> out;
    for (const auto& lane : lanes) out.push_back(lane->digest());
    return out;
  }

  static pipeline::TrainedPipeline* pipe_;
  static std::vector<HeatMapTrace>* streams_;
  fs::path root_;
};

pipeline::TrainedPipeline* ObservationDigest::pipe_ = nullptr;
std::vector<HeatMapTrace>* ObservationDigest::streams_ = nullptr;

TEST_F(ObservationDigest, PinnedForGoldenStreams) {
  for (std::size_t s = 0; s < 3; ++s) {
    for (int preset = 0; preset < 2; ++preset) {
      std::uint64_t bundles = 0;
      const std::uint64_t got = serial_digest(s, preset, &bundles);
      EXPECT_EQ(got, kPinned[s][preset])
          << kStreams[s] << (preset == 0 ? " default" : " fleet_preset")
          << ": digest " << hex64(got);
      // The attacked streams must exercise the bundle part of the digest.
      if (s > 0) {
        EXPECT_GE(bundles, 2u) << kStreams[s];
      }
    }
  }
}

TEST_F(ObservationDigest, ShardScatterMatchesSerial) {
  for (std::size_t s = 0; s < 3; ++s) {
    for (int preset = 0; preset < 2; ++preset) {
      for (const std::size_t batch : {1u, 3u, 64u}) {
        const std::vector<std::uint64_t> lanes =
            shard_digests(s, preset, batch);
        for (std::size_t b = 0; b < lanes.size(); ++b) {
          EXPECT_EQ(lanes[b], kPinned[s][preset])
              << kStreams[s]
              << (preset == 0 ? " default" : " fleet_preset") << " batch "
              << batch << " lane " << b << ": digest " << hex64(lanes[b]);
        }
      }
    }
  }
}

TEST_F(ObservationDigest, ThreadCountDoesNotChangeDigest) {
  const std::size_t before = global_threads();
  for (const std::size_t threads : {1u, 4u}) {
    set_global_threads(threads);
    for (std::size_t s = 0; s < 3; ++s) {
      for (int preset = 0; preset < 2; ++preset) {
        EXPECT_EQ(serial_digest(s, preset), kPinned[s][preset])
            << kStreams[s] << " threads " << threads;
        for (const std::uint64_t lane : shard_digests(s, preset, 3)) {
          EXPECT_EQ(lane, kPinned[s][preset])
              << kStreams[s] << " shard, threads " << threads;
        }
      }
    }
  }
  set_global_threads(before);
}

}  // namespace
}  // namespace mhm
