// The fleet workload: 8,192 device sessions at δ = 8 KB (L = 368) scored
// through fleet::FleetRunner in closed-loop rounds, one interval per device
// per round, while a client scrapes /fleet and /metrics.
//
// The traced run adds three things the untraced run never does: a second
// FleetRunner timed round by round (with and without aggregation), a third
// at width 1 whose aggregates must equal the width-3 ones, and a shard loop
// of the benchmark's own that drives DetectionEngine::analyze_shard directly
// so the batch scoring and the per-session observation can be timed apart
// and the batch re-scored through score_snapshot_batch.

#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>

#include "attacks/attacks.hpp"
#include "common/parallel.hpp"
#include "engine/sim_source.hpp"
#include "fleet/runner.hpp"
#include "obs/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mhm;

namespace {

constexpr std::size_t kDevices = 8192;
constexpr std::size_t kWidth = 3;
/// Rounds a FleetRunner can serve: twice what a 10 s run uses on a 4-core
/// host, so a faster build still measures for the full run.
constexpr std::size_t kRounds = 2048;
/// Attack trigger and the round at which counts and aggregates are taken.
constexpr std::size_t kTrigger = 128;
constexpr std::size_t kSetups = 5;

sim::SystemConfig fleet_config() {
  sim::SystemConfig cfg = sim::SystemConfig::paper_default(1);
  cfg.monitor.granularity = 8 * 1024;  // L = 368
  return cfg;
}

/// bench/fleet.cpp's archetype mix.
fleet::FleetSpec fleet_spec(std::uint64_t seed) {
  fleet::FleetSpec spec;
  spec.devices = kDevices;
  spec.intervals = kRounds;
  spec.seed = stream_seed(seed, 300);
  spec.health_refresh = 8;
  fleet::ArchetypeSpec steady;
  steady.name = "steady";
  steady.weight = 0.8;
  spec.archetypes.push_back(steady);
  fleet::ArchetypeSpec bursty;
  bursty.name = "bursty";
  bursty.weight = 0.1;
  bursty.jitter_scale = 2.0;
  spec.archetypes.push_back(bursty);
  fleet::ArchetypeSpec attacked;
  attacked.name = "shellcode";
  attacked.weight = 0.1;
  attacked.attack = "shellcode";
  attacked.trigger_interval = kTrigger;
  spec.archetypes.push_back(attacked);
  return spec;
}

/// The deterministic part of a snapshot (everything but timing).
std::string aggregate_key(const fleet::FleetSnapshot& s) {
  std::string k = fmt("intervals %llu alarms %llu ok %llu drifting %llu "
                      "miscal %llu version %llu",
                      static_cast<unsigned long long>(s.intervals),
                      static_cast<unsigned long long>(s.alarms),
                      static_cast<unsigned long long>(s.devices_ok),
                      static_cast<unsigned long long>(s.devices_drifting),
                      static_cast<unsigned long long>(s.devices_miscalibrated),
                      static_cast<unsigned long long>(s.model_version));
  for (const auto& sh : s.shard_summaries) {
    k += fmt(" [%zu %llu %llu]", sh.devices,
             static_cast<unsigned long long>(sh.intervals),
             static_cast<unsigned long long>(sh.alarms));
  }
  for (const auto& t : s.top) {
    k += fmt(" {%llu %s %016llx %llu %d}",
             static_cast<unsigned long long>(t.device), t.archetype.c_str(),
             static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(t.severity)),
             static_cast<unsigned long long>(t.alarms), t.status);
  }
  for (const auto& g : s.incident_groups) {
    k += fmt(" <%llu %llu %zu %llu>",
             static_cast<unsigned long long>(g.first_interval),
             static_cast<unsigned long long>(g.last_interval), g.devices,
             static_cast<unsigned long long>(g.marks));
  }
  return k;
}

struct FleetCounts {
  double fp_ratio = 0.0;
  double detect_latency = 0.0;
  std::string aggregates;  ///< aggregate_key at round kTrigger.
  bool operator==(const FleetCounts&) const = default;
};

/// Detection latency of the attacked archetype: a one-device fleet holding
/// only that archetype (same spec seed, so the same simulated stream every
/// attacked device of the main fleet replays at offset 0), stepped round by
/// round until its first post-trigger alarm. Inclusive; a miss counts the
/// whole post-trigger length.
double attacked_latency(const fleet::FleetSpec& base,
                        const sim::SystemConfig& cfg,
                        std::shared_ptr<const ModelSnapshot> model) {
  fleet::FleetSpec spec = base;
  spec.devices = 1;
  spec.archetypes[0].weight = 0.0;
  spec.archetypes[1].weight = 0.0;
  spec.archetypes[2].weight = 1.0;
  fleet::FleetRunner probe(spec, cfg, std::move(model));
  probe.run_rounds(kTrigger);
  std::uint64_t alarms = probe.aggregator().snapshot().alarms;
  while (!probe.done()) {
    probe.run_rounds(1);
    const std::uint64_t now = probe.aggregator().snapshot().alarms;
    if (now > alarms) {
      return static_cast<double>(probe.rounds_completed() - kTrigger);
    }
    alarms = now;
  }
  return static_cast<double>(kRounds - kTrigger);
}

struct Setup {
  std::unique_ptr<pipeline::TrainedPipeline> pipe;
  /// Shared with the /fleet provider, which the serve thread may still be
  /// running after set_fleet(nullptr) returns.
  std::shared_ptr<fleet::FleetRunner> runner;
  std::unique_ptr<obs::MonitorServer> server;
  double setup_s = 0.0;
  double train_s = 0.0;
  double build_s = 0.0;
  double bytes_per_session = 0.0;
};

Setup fleet_setup(const RunArgs& args, Clock::time_point t0) {
  Setup s;
  const sim::SystemConfig cfg = fleet_config();
  Clock::time_point a = Clock::now();
  s.pipe = std::make_unique<pipeline::TrainedPipeline>(
      pipeline::train_pipeline(cfg, paper_plan(), paper_options()));
  s.train_s = seconds_between(a, Clock::now());
  trim_heap();
  const std::size_t rss0 = rss_bytes();
  a = Clock::now();
  s.runner = std::make_shared<fleet::FleetRunner>(
      fleet_spec(args.seed), cfg,
      s.pipe->detector->snapshot());
  s.build_s = seconds_between(a, Clock::now());
  const std::size_t rss1 = rss_bytes();
  s.bytes_per_session = static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) /
                        static_cast<double>(kDevices);
  s.server = std::make_unique<obs::MonitorServer>();
  if (!s.server->start(obs::MonitorServer::Options{})) {
    throw std::runtime_error("cannot start the monitor server on loopback");
  }
  s.server->set_fleet([runner = s.runner] { return runner->json(); });
  s.setup_s = seconds_between(t0, Clock::now());
  return s;
}

struct RoundPhase {
  std::vector<double> round_ms;
  double rounds_s = 0.0;
  std::uint64_t intervals = 0;
  std::optional<FleetCounts> counts;
  std::unique_ptr<Scraper> scraper;
};

/// Closed-loop rounds until `seconds` pass (or the runner's rounds run out).
/// The fp count is taken from the aggregates at kTrigger, when every device
/// has only seen clean intervals.
void run_rounds(fleet::FleetRunner& runner, obs::MonitorServer& server,
                double seconds, RoundPhase& p) {
  p.scraper = std::make_unique<Scraper>(
      server.port(), std::vector<std::string>{"/metrics", "/fleet"},
      std::chrono::milliseconds(50));
  const Clock::time_point t0 = Clock::now();
  p.scraper->start();
  while (!runner.done() && seconds_between(t0, Clock::now()) < seconds) {
    const Clock::time_point a = Clock::now();
    const std::uint64_t n = runner.run_rounds(1);
    const Clock::time_point b = Clock::now();
    p.round_ms.push_back(us_between(a, b) / 1000.0);
    p.rounds_s += seconds_between(a, b);
    p.intervals += n;
    if (runner.rounds_completed() == kTrigger) {
      const fleet::FleetSnapshot snap = runner.aggregator().snapshot();
      FleetCounts c;
      c.fp_ratio = static_cast<double>(snap.alarms) /
                   static_cast<double>(std::max<std::uint64_t>(1, snap.intervals));
      c.aggregates = aggregate_key(snap);
      p.counts = c;
    }
  }
  p.scraper->stop();
}

/// Shard loop of the benchmark's own over `devices` fleet-preset sessions,
/// 256 per analyze_shard call (the runner's chunk), at the given width.
struct ShardLoop {
  std::vector<std::vector<double>> rows[3];
  std::vector<engine::Session> sessions;
  double sim_us = 0.0, to_double_us = 0.0, accesses = 0.0;
  std::size_t sim_intervals = 0;

  struct Acc {
    double shard_us = 0, batch_us = 0, project_us = 0, gmm_us = 0;
    std::uint64_t intervals = 0, staged = 0, mismatches = 0;
    engine::ShardWorkspace ws;
    ScoreBatch batch;
    BatchScoreScratch scratch;
    std::vector<double> phi, w, terms, gamma, ln;
    Gmm::BatchScratch gs;
    std::vector<Verdict> verdicts;
  };

  void build(const sim::SystemConfig& cfg, std::uint64_t seed,
             const engine::DetectionEngine& engine, std::size_t devices,
             std::size_t length) {
    const double jitter[3] = {1.0, 2.0, 1.0};
    for (std::size_t a = 0; a < 3; ++a) {
      std::unique_ptr<attacks::AttackScenario> attack;
      if (a == 2) attack = attacks::make_scenario("shellcode");
      sim::SystemConfig c = cfg;
      c.seed = stream_seed(seed, 400 + a);
      c.jitter_scale = jitter[a];
      sim::System system(c);
      if (attack) attack->arm(system, static_cast<SimTime>(length / 2) * c.monitor.interval);
      engine::SimIntervalSource source(
          system, static_cast<SimTime>(length) * c.monitor.interval);
      std::vector<double> row;
      while (true) {
        Clock::time_point t0 = Clock::now();
        auto item = source.next();
        Clock::time_point t1 = Clock::now();
        if (!item) break;
        sim_us += us_between(t0, t1);
        ++sim_intervals;
        accesses += static_cast<double>(item->map.total_accesses());
        t0 = Clock::now();
        item->map.as_vector_into(row);
        t1 = Clock::now();
        to_double_us += us_between(t0, t1);
        rows[a].push_back(row);
      }
    }
    engine::SessionOptions so = engine::SessionOptions::fleet_preset();
    sessions.reserve(devices);
    for (std::size_t d = 0; d < devices; ++d) {
      sessions.push_back(engine.new_session(so));
    }
  }

  /// Score `rounds` rounds at `width`; per-shard accumulators are
  /// index-owned, so the timing needs no locks.
  std::vector<Acc> run(const engine::DetectionEngine& engine,
                       const ModelSnapshot& model, std::size_t rounds,
                       std::size_t width, std::uint64_t round0) {
    set_global_threads(width);
    const std::size_t shards = sessions.size() / 256;
    std::vector<Acc> acc(shards);
    for (std::size_t r = 0; r < rounds; ++r) {
      parallel_for(shards, 1, [&](std::size_t s0, std::size_t s1) {
        for (std::size_t sh = s0; sh < s1; ++sh) {
          Acc& A = acc[sh];
          std::vector<engine::Session*> ss;
          std::vector<std::span<const double>> raws;
          std::vector<std::uint64_t> idx;
          for (std::size_t d = sh * 256; d < (sh + 1) * 256; ++d) {
            const auto& arch = rows[d % 10 < 8 ? 0 : (d % 10 == 8 ? 1 : 2)];
            const std::size_t off = d % 10 == 9 ? 0 : d % 16;
            ss.push_back(&sessions[d]);
            raws.emplace_back(arch[(round0 + r + off) % arch.size()]);
            idx.push_back(round0 + r);
          }
          A.verdicts.clear();
          Clock::time_point t0 = Clock::now();
          engine.analyze_shard(ss, raws, idx, A.ws, &A.verdicts);
          Clock::time_point t1 = Clock::now();
          // Even rounds time the shard call alone; odd rounds re-score and
          // time the stages, so neither pollutes the other's caches.
          if (r % 2 == 0) {
            A.shard_us += us_between(t0, t1);
            A.intervals += raws.size();
            continue;
          }
          A.batch.clear(model.pca.input_dim());
          for (std::size_t i = 0; i < raws.size(); ++i) A.batch.push(raws[i], idx[i]);
          t0 = Clock::now();
          score_snapshot_batch(model, A.batch, A.scratch);
          t1 = Clock::now();
          A.batch_us += us_between(t0, t1);
          for (std::size_t i = 0; i < raws.size(); ++i) {
            A.mismatches += !same_verdict(A.batch.verdict(i), A.verdicts[i]);
          }
          t0 = Clock::now();
          model.pca.project_batch(raws, A.phi, A.w);
          t1 = Clock::now();
          A.project_us += us_between(t0, t1);
          A.ln.resize(raws.size());
          t0 = Clock::now();
          model.gmm.responsibilities_batch(A.w, raws.size(), A.gs, A.terms,
                                           A.gamma, A.ln);
          t1 = Clock::now();
          A.gmm_us += us_between(t0, t1);
          A.staged += raws.size();
        }
      });
    }
    set_global_threads(kWidth);
    return acc;
  }
};

struct LoopTotals {
  double shard = 0, batch = 0, project = 0, gmm = 0;
  std::uint64_t n = 0, staged = 0, mismatches = 0;

  double shard_us() const { return shard / static_cast<double>(n); }
  double batch_us() const { return batch / static_cast<double>(staged); }
  double project_us() const { return project / static_cast<double>(staged); }
  double gmm_us() const { return gmm / static_cast<double>(staged); }
};

LoopTotals totals(const std::vector<ShardLoop::Acc>& acc) {
  LoopTotals t;
  for (const auto& a : acc) {
    t.shard += a.shard_us;
    t.batch += a.batch_us;
    t.project += a.project_us;
    t.gmm += a.gmm_us;
    t.n += a.intervals;
    t.staged += a.staged;
    t.mismatches += a.mismatches;
  }
  return t;
}

/// Intervals per second as the median over windows of 32 rounds: a
/// preemption burst slows one window, not the figure.
double windowed_rate(const std::vector<double>& round_ms) {
  constexpr std::size_t kWindow = 32;
  std::vector<double> rates;
  for (std::size_t i = 0; i + kWindow <= round_ms.size(); i += kWindow) {
    double ms = 0.0;
    for (std::size_t j = i; j < i + kWindow; ++j) ms += round_ms[j];
    rates.push_back(static_cast<double>(kWindow * kDevices) * 1000.0 / ms);
  }
  return median(rates);
}

std::string join(const std::vector<double>& v) {
  std::string out;
  for (double x : v) out += fmt(out.empty() ? "%.3f" : " %.3f", x);
  return out;
}

}  // namespace

Outcome run_fleet(const RunArgs& args) {
  Outcome out;
  // Set-up is repeated and its median reported; the last one serves.
  std::vector<double> setups, trains, builds, bytes;
  Setup s;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = i == 0 ? args.process_start : Clock::now();
    if (s.server) s.server->stop();
    s = Setup{};
    s = fleet_setup(args, t0);
    setups.push_back(s.setup_s);
    trains.push_back(s.train_s);
    builds.push_back(s.build_s);
    bytes.push_back(s.bytes_per_session);
  }
  const sim::SystemConfig cfg = fleet_config();
  const fleet::FleetSpec spec = fleet_spec(args.seed);

  RoundPhase plain;
  run_rounds(*s.runner, *s.server, args.seconds, plain);
  out.attempted += plain.intervals + plain.scraper->attempted();
  out.failed += plain.scraper->failed();
  if (!plain.counts) {
    out.check(false, "fleet: the run ended before the count round");
    plain.counts = FleetCounts{};
  }
  plain.counts->detect_latency =
      attacked_latency(spec, cfg, s.pipe->detector->snapshot());

  const double rounds_s = plain.rounds_s;
  const double p50 = quantile(plain.round_ms, 0.5);
  const double p90 = quantile(plain.round_ms, 0.9);
  const double per_interval = 1000.0 * static_cast<double>(kWidth) /
                              static_cast<double>(kDevices);
  out.e2e("setup_s", median(setups), "s");
  out.e2e("train_s", median(trains), "s");
  out.e2e("intervals_per_s", windowed_rate(plain.round_ms), "1/s");
  out.e2e("analyze_us_p50", p50 * per_interval, "us");
  out.e2e("analyze_us_p90", p90 * per_interval, "us");
  out.e2e("round_ms_p50", p50, "ms");
  out.e2e("round_ms_p90", p90, "ms");
  out.e2e("scrape_ms_p50", plain.scraper->p50_ms(), "ms");
  out.e2e("peak_rss_mb",
          static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0), "MB");
  out.e2e("bytes_per_session", median(bytes), "B");
  out.report += fmt(
      "untraced: %zu rounds of %zu devices, %.3f s in rounds, round p50 "
      "%.3f ms p90 %.3f ms, %llu scrapes (%llu failed, max start lag %.2f "
      "ms); fleet.build_s %.3f, fp_ratio %.6f, detect latency %.1f\n"
      "set-ups: %s s (train %s s)\n",
      plain.round_ms.size(), kDevices, rounds_s, p50, p90,
      static_cast<unsigned long long>(plain.scraper->attempted()),
      static_cast<unsigned long long>(plain.scraper->failed()),
      plain.scraper->max_start_lag_ms(), median(builds),
      plain.counts->fp_ratio, plain.counts->detect_latency,
      join(setups).c_str(), join(trains).c_str());

  if (args.trace) {
    // (1) A fresh runner, timed round by round: counts must repeat, then
    // alternate rounds with aggregation off to price the aggregator.
    auto model = s.pipe->detector->snapshot();
    s.server->set_fleet(nullptr);
    s.runner.reset();
    auto traced_ptr = std::make_shared<fleet::FleetRunner>(spec, cfg, model);
    fleet::FleetRunner& traced = *traced_ptr;
    s.server->set_fleet([traced_ptr] { return traced_ptr->json(); });
    RoundPhase tp;
    run_rounds(traced, *s.server, std::min(args.seconds, 4.0), tp);
    while (traced.rounds_completed() < kTrigger) traced.run_rounds(1);
    out.check(tp.counts.has_value(), "fleet: traced runner missed the count round");
    if (tp.counts) {
      tp.counts->detect_latency = attacked_latency(spec, cfg, model);
      out.check(*tp.counts == *plain.counts,
                "fleet: traced counts or aggregates differ from the untraced run");
    }
    std::vector<double> on, off;
    for (std::size_t i = 0; i < 48 && !traced.done(); ++i) {
      traced.set_aggregation(i % 2 == 0);
      const Clock::time_point a = Clock::now();
      traced.run_rounds(1);
      (i % 2 == 0 ? on : off).push_back(us_between(a, Clock::now()) / 1000.0);
    }
    traced.set_aggregation(true);
    std::vector<double> snap_ms;
    for (int i = 0; i < 32; ++i) {
      const Clock::time_point a = Clock::now();
      const std::string body = traced.aggregator().json();
      snap_ms.push_back(us_between(a, Clock::now()) / 1000.0);
      out.check(json_parses(body), "fleet: snapshot json does not parse");
    }
    s.server->set_fleet(nullptr);

    // (2) Width 1 against width 3: aggregates at the count round must match.
    {
      set_global_threads(1);
      fleet::FleetRunner narrow(spec, cfg, model);
      narrow.run_rounds(kTrigger);
      const std::string key = aggregate_key(narrow.aggregator().snapshot());
      set_global_threads(kWidth);
      out.check(plain.counts && key == plain.counts->aggregates,
                "fleet: aggregates differ between widths 1 and 3");
    }

    // (3) The shard loop: analyze_shard vs score_snapshot_batch.
    engine::DetectionEngine engine(model);
    ShardLoop loop;
    loop.build(cfg, args.seed, engine, kDevices, 64);
    const auto t3 = totals(loop.run(engine, *model, 16, kWidth, 0));
    const auto t1 = totals(loop.run(engine, *model, 16, 1, 16));
    out.check(t3.mismatches + t1.mismatches == 0,
              "fleet: score_snapshot_batch does not reproduce analyze_shard");
    std::uint64_t journal = 0;
    for (const auto& sess : loop.sessions) journal += sess.journal().total_appended();

    const TrainStages ts = time_training_stages(cfg);
    const double sim_n = static_cast<double>(loop.sim_intervals);
    out.layer("sim.interval_us", loop.sim_us / sim_n, "us");
    out.layer("sim.accesses_per_interval", loop.accesses / sim_n, "count");
    out.layer("core.to_double_us", loop.to_double_us / sim_n, "us");
    out.layer("core.project_us", t3.project_us(), "us");
    out.layer("core.gmm_us", t3.gmm_us(), "us");
    out.layer("core.score_us", t3.batch_us(), "us");
    out.layer("engine.analyze_us", t3.shard_us(), "us");
    out.layer("obs.record_us", t3.shard_us() - t3.batch_us(), "us");
    out.layer("obs.scrape_metrics_ms", median(tp.scraper->latencies_ms()[0]), "ms");
    out.layer("obs.scrape_state_ms", median(tp.scraper->latencies_ms()[1]), "ms");
    out.layer("pipeline.collect_s", ts.collect_s, "s");
    out.layer("pipeline.pca_s", ts.pca_s, "s");
    out.layer("linalg.eigensolve_s", ts.eigensolve_s, "s");
    out.layer("pipeline.gmm_s", ts.gmm_s, "s");
    out.layer("pipeline.calibrate_s", ts.calibrate_s, "s");
    out.layer("obs.journal_records", static_cast<double>(journal), "count");
    out.layer("obs.incidents_committed", 0.0, "count");
    out.layer("fp_ratio", plain.counts->fp_ratio, "ratio");
    out.layer("detect_latency_intervals", plain.counts->detect_latency,
              "intervals");
    out.layer("recovery_intervals", 0.0, "intervals");
    out.layer("retrain.published", 0.0, "count");
    out.layer("retrain.rejected", 0.0, "count");

    // Thread-time per interval: the untraced round wall × width ÷ devices.
    const double e2e_us = rounds_s * 1e6 * static_cast<double>(kWidth) /
                          static_cast<double>(plain.intervals);
    const double agg_us = (median(on) - median(off)) * 1000.0 *
                          static_cast<double>(kWidth) /
                          static_cast<double>(kDevices);
    std::vector<LayerRow> rows = {
        {"core", "Eigenmemory::project_batch", t3.project_us()},
        {"core", "score_snapshot_batch - project_batch",
         t3.batch_us() - t3.project_us()},
        {"obs", "analyze_shard - score_snapshot_batch",
         t3.shard_us() - t3.batch_us()},
        {"fleet", "aggregation (rounds on - off)", agg_us},
    };
    const double traced_us = median(tp.round_ms) * 1000.0 *
                             static_cast<double>(kWidth) /
                             static_cast<double>(kDevices);
    out.report += "fleet table in thread-us per interval (round wall x width / devices)\n";
    out.report += layer_table(rows, e2e_us, traced_us);
    out.report += fmt(
        "fleet layers: fleet.round_ms p50 %.3f, fleet.aggregate_share %.2f%%, "
        "fleet.snapshot_ms p50 %.4f, fleet.build_s %.3f, fleet.session_bytes "
        "%.0f\n  engine.shard_us per call %.2f, core.batch_score_us "
        "%.4f/interval, obs.scatter_us_t1 %.4f, obs.scatter_us_t3 %.4f\n",
        median(tp.round_ms),
        100.0 * (median(on) - median(off)) / median(on), median(snap_ms),
        median(builds), median(bytes), t3.shard_us() * 256.0, t3.batch_us(),
        t1.shard_us() - t1.batch_us(), t3.shard_us() - t3.batch_us());
    out.report += fmt("training stages (L = 368): collect %.3f s, "
                      "Eigenmemory::fit %.3f s (eigen_symmetric %.3f s), Gmm "
                      "fit %.3f s, calibrate %.3f s\n",
                      ts.collect_s, ts.pca_s, ts.eigensolve_s, ts.gmm_s,
                      ts.calibrate_s);
  }
  s.server->stop();
  return out;
}

}  // namespace perfbench
