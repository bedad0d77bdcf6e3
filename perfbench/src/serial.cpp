// The two serial workloads, secure_core and drift: one secure core scoring
// paper-scale (L = 1,472) heat maps through engine::Session, one interval at
// a time. Both train the §5.2 pipeline in set-up, then repeat a fixed,
// seeded pass until the run's time is spent. A pass first simulates its
// streams (the load generator, timed as its own leg) and then scores the
// frozen maps, so the simulator's cache footprint never lands inside a
// scoring call.

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "attacks/attacks.hpp"
#include "common/parallel.hpp"
#include "core/model_io.hpp"
#include "engine/retrain.hpp"
#include "engine/sim_source.hpp"
#include "linalg/eigen_sym.hpp"
#include "obs/incident.hpp"
#include "obs/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mhm;

pipeline::ProfilingPlan paper_plan() {
  pipeline::ProfilingPlan plan;
  plan.runs = 10;
  plan.run_duration = 3 * kSecond;
  plan.seed_base = 100;
  return plan;
}

AnomalyDetector::Options paper_options() {
  AnomalyDetector::Options opts;
  opts.pca.components = 9;
  opts.gmm.components = 5;
  opts.gmm.restarts = 10;
  opts.primary_p = 0.01;
  return opts;
}

std::uint64_t stream_seed(std::uint64_t run_seed, std::uint64_t index) {
  return 100'000 + run_seed * 1'000 + index;
}

bool same_verdict(const Verdict& a, const Verdict& b) {
  return a.interval_index == b.interval_index &&
         std::bit_cast<std::uint64_t>(a.log10_density) ==
             std::bit_cast<std::uint64_t>(b.log10_density) &&
         a.anomalous == b.anomalous && a.nearest_pattern == b.nearest_pattern &&
         std::bit_cast<std::uint64_t>(a.spe) ==
             std::bit_cast<std::uint64_t>(b.spe) &&
         a.model_version == b.model_version;
}

TrainStages time_training_stages(const sim::SystemConfig& config) {
  const pipeline::ProfilingPlan plan = paper_plan();
  const AnomalyDetector::Options opts = paper_options();
  TrainStages t;

  Clock::time_point t0 = Clock::now();
  const HeatMapTrace training = pipeline::collect_normal_trace(config, plan);
  pipeline::ProfilingPlan vplan = plan;
  vplan.runs = std::max<std::size_t>(1, plan.runs / 5);
  vplan.seed_base = plan.seed_base + plan.runs + 1000;
  const HeatMapTrace validation = pipeline::collect_normal_trace(config, vplan);
  t.collect_s = seconds_between(t0, Clock::now());

  std::vector<std::vector<double>> rows;
  rows.reserve(training.size());
  for (const auto& m : training) rows.push_back(m.as_vector());
  std::vector<std::vector<double>> vrows;
  for (const auto& m : validation) vrows.push_back(m.as_vector());

  t0 = Clock::now();
  const Eigenmemory pca = Eigenmemory::fit(rows, opts.pca);
  t.pca_s = seconds_between(t0, Clock::now());

  // The eigensolve alone, on the L × L covariance of the same maps (built
  // here, untimed, cell-major so each entry is one contiguous dot).
  const std::size_t n = rows.size();
  const std::size_t l = rows.front().size();
  std::vector<double> cols(l * n);
  for (std::size_t c = 0; c < l; ++c) {
    double mu = 0.0;
    for (std::size_t s = 0; s < n; ++s) mu += rows[s][c];
    mu /= static_cast<double>(n);
    for (std::size_t s = 0; s < n; ++s) cols[c * n + s] = rows[s][c] - mu;
  }
  linalg::Matrix cov(l, l);
  parallel_for(l, 8, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const double* a = &cols[i * n];
      for (std::size_t j = 0; j <= i; ++j) {
        const double* b = &cols[j * n];
        double acc = 0.0;
        for (std::size_t s = 0; s < n; ++s) acc += a[s] * b[s];
        cov(i, j) = acc / static_cast<double>(n);
      }
    }
  });
  for (std::size_t i = 0; i < l; ++i) {
    for (std::size_t j = i + 1; j < l; ++j) cov(i, j) = cov(j, i);
  }
  t0 = Clock::now();
  const linalg::SymmetricEigenResult eig = linalg::eigen_symmetric(cov);
  t.eigensolve_s = seconds_between(t0, Clock::now());
  (void)eig;

  t0 = Clock::now();
  const auto reduced = pca.project_all(rows);
  const Gmm gmm = Gmm::fit(reduced, opts.gmm);
  t.gmm_s = seconds_between(t0, Clock::now());

  t0 = Clock::now();
  std::vector<double> ln;
  gmm.total_log_likelihood(pca.project_all(vrows), &ln);
  for (double& s : ln) s /= std::log(10.0);
  const ThresholdCalibrator calibrator(std::move(ln));
  const Threshold theta = calibrator.at(opts.primary_p);
  t.calibrate_s = seconds_between(t0, Clock::now());
  (void)theta;
  return t;
}

namespace {

/// One simulated stream of a pass.
struct StreamSpec {
  std::string attack;  ///< "" = clean.
  std::uint64_t seed = 0;
  std::size_t intervals = 0;
  std::uint64_t trigger = 0;  ///< First attacked interval (attacked only).
  bool changed_mode = false;  ///< drift: device IRQs every 2 ms, jitter ×1.25.
};

struct SimmedStream {
  HeatMapTrace maps;
  std::vector<double> next_us;  ///< Per SimIntervalSource::next call.
};

/// Simulate one stream with the workload's configuration. The attack is
/// declared before the System so it outlives every run_for the System makes
/// (RootkitAttack::arm hands the System a callback capturing `this`).
SimmedStream simulate(const sim::SystemConfig& base, const StreamSpec& spec) {
  std::unique_ptr<attacks::AttackScenario> attack;
  if (!spec.attack.empty()) attack = attacks::make_scenario(spec.attack);
  sim::SystemConfig cfg = base;
  cfg.seed = spec.seed;
  if (spec.changed_mode) {
    cfg.device_irq_mean_period = 2 * kMillisecond;
    cfg.jitter_scale = 1.25;
  }
  sim::System system(cfg);
  if (attack) {
    attack->arm(system, static_cast<SimTime>(spec.trigger) *
                            cfg.monitor.interval);
  }
  SimmedStream out;
  out.maps.reserve(spec.intervals);
  out.next_us.reserve(spec.intervals);
  engine::SimIntervalSource source(
      system, static_cast<SimTime>(spec.intervals) * cfg.monitor.interval);
  while (true) {
    const Clock::time_point t0 = Clock::now();
    std::optional<engine::SourceItem> item = source.next();
    const Clock::time_point t1 = Clock::now();
    if (!item) break;
    out.next_us.push_back(us_between(t0, t1));
    out.maps.push_back(std::move(item->map));
  }
  return out;
}

/// Counts a pass produces; they must repeat exactly in every pass, traced
/// or not.
struct Counts {
  std::uint64_t clean_intervals = 0;
  std::uint64_t clean_alarms = 0;
  double detect_latency = 0.0;
  double recovery = 0.0;
  double accesses_per_interval = 0.0;
  std::uint64_t journal_records = 0;
  std::uint64_t incidents = 0;
  std::uint64_t published = 0;
  std::uint64_t rejected = 0;
  std::uint64_t window_rows = 0;

  double fp_ratio() const {
    return clean_intervals > 0 ? static_cast<double>(clean_alarms) /
                                     static_cast<double>(clean_intervals)
                               : 0.0;
  }
  bool operator==(const Counts&) const = default;
};

/// Per-stage timing sums of the traced re-scoring (µs).
struct StageSums {
  double to_double = 0, project = 0, gmm = 0, score = 0;
  std::uint64_t n = 0;
  std::uint64_t mismatches = 0;
  std::vector<double> raw, phi, w;
  Gmm::Scratch gs;
  ScoreScratch ss;

  /// Re-score `map` stage by stage through the public calls and check the
  /// stand-alone score_snapshot reproduces the Session's verdict bit for bit.
  void rescore(const ModelSnapshot& snap, const HeatMap& map,
               const Verdict& served) {
    Clock::time_point t0 = Clock::now();
    map.as_vector_into(raw);
    Clock::time_point t1 = Clock::now();
    to_double += us_between(t0, t1);
    t0 = Clock::now();
    snap.pca.project_into(raw, phi, w);
    t1 = Clock::now();
    project += us_between(t0, t1);
    t0 = Clock::now();
    (void)snap.gmm.log_density(w, gs);
    t1 = Clock::now();
    gmm += us_between(t0, t1);
    t0 = Clock::now();
    const Verdict v = score_snapshot(snap, raw, map.interval_index, ss);
    t1 = Clock::now();
    score += us_between(t0, t1);
    ++n;
    if (!same_verdict(v, served)) ++mismatches;
  }
};

/// Everything one measured phase (untraced or traced) accumulates.
struct Phase {
  std::uint64_t passes = 0;
  std::uint64_t intervals = 0;
  double sim_s = 0.0;    ///< Summed simulation legs.
  double score_s = 0.0;  ///< Summed scoring legs.
  std::vector<double> analyze_us;
  std::vector<double> round_ms;  ///< Per interval: its next() + analyze.
  std::optional<Counts> counts;  ///< From pass 0.
  std::vector<std::vector<Verdict>> first_verdicts;
  std::uint64_t dropped = 0;      ///< Intervals dropped or scored twice.
  std::uint64_t mismatched_passes = 0;
  std::uint64_t retrain_errors = 0;
  std::vector<double> publish_call_s;  ///< drift: analyze calls that published.
  // Traced only.
  StageSums stages;
  double sim_us_sum = 0.0;
  double analyze_us_sum = 0.0;
  std::vector<double> attempt_s, fit_s, pickup_us;
  double save_ms = 0.0;
  std::vector<double> pass_us;  ///< Serving µs per interval, per pass.
  double attempt_call_s = 0.0;  ///< drift: analyze calls running an attempt.
  std::uint64_t nonmonotone = 0;  ///< drift: passes with a version step back.
  std::shared_ptr<Scraper> scraper;  ///< Shared by interleaved phases.

  /// Serving cost per interval: simulation + scoring legs, minus the
  /// analyze calls that ran an inline retrain attempt (drift only).
  double us_per_interval() const {
    return intervals > 0 ? (sim_s + score_s - attempt_call_s) * 1e6 /
                               static_cast<double>(intervals)
                         : 0.0;
  }
};

/// Check interval indices of a scored stream: 0, 1, 2, … with no gap and no
/// repeat. Returns the number of offending intervals.
std::uint64_t index_faults(const std::vector<Verdict>& verdicts,
                           std::size_t expected) {
  std::uint64_t faults = verdicts.size() > expected
                             ? verdicts.size() - expected
                             : expected - verdicts.size();
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i].interval_index != i) ++faults;
  }
  return faults;
}

struct PaperSetup {
  sim::SystemConfig config = sim::SystemConfig::paper_default(1);
  std::unique_ptr<pipeline::TrainedPipeline> pipe;
  double train_s = 0.0;
  std::unique_ptr<obs::MonitorServer> server;
  std::shared_ptr<obs::IncidentStore> incidents;
};

PaperSetup paper_setup(const RunDir& dir) {
  PaperSetup s;
  const Clock::time_point t0 = Clock::now();
  s.pipe = std::make_unique<pipeline::TrainedPipeline>(
      pipeline::train_pipeline(s.config, paper_plan(), paper_options()));
  s.train_s = seconds_between(t0, Clock::now());
  obs::IncidentStore::Options io;
  io.dir = dir.sub("incidents");
  s.incidents = std::make_shared<obs::IncidentStore>(io);
  s.server = std::make_unique<obs::MonitorServer>();
  obs::MonitorServer::Options so;
  so.port = 0;
  if (!s.server->start(so)) {
    throw std::runtime_error("cannot start the monitor server on loopback");
  }
  return s;
}

/// RSS growth of constructing `count` sessions ÷ count.
template <typename Make>
double bytes_per_session(Make make, std::size_t count) {
  trim_heap();
  const std::size_t rss0 = rss_bytes();
  std::vector<engine::Session> sessions;
  sessions.reserve(count);
  for (std::size_t i = 0; i < count; ++i) sessions.push_back(make());
  const std::size_t rss1 = rss_bytes();
  return static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) /
         static_cast<double>(count);
}

void emit_common_layers(Outcome& out, const Phase& traced,
                        const TrainStages& ts, const Counts& c) {
  const double n = static_cast<double>(std::max<std::uint64_t>(1, traced.intervals));
  const StageSums& st = traced.stages;
  const double sn = static_cast<double>(std::max<std::uint64_t>(1, st.n));
  out.layer("sim.interval_us", traced.sim_us_sum / n, "us");
  out.layer("sim.accesses_per_interval", c.accesses_per_interval, "count");
  out.layer("core.to_double_us", st.to_double / sn, "us");
  out.layer("core.project_us", st.project / sn, "us");
  out.layer("core.gmm_us", st.gmm / sn, "us");
  out.layer("core.score_us", st.score / sn, "us");
  out.layer("engine.analyze_us", traced.analyze_us_sum / sn, "us");
  out.layer("obs.record_us", (traced.analyze_us_sum - st.score) / sn, "us");
  const auto& lat = traced.scraper->latencies_ms();
  out.layer("obs.scrape_metrics_ms", median(lat[0]), "ms");
  out.layer("obs.scrape_state_ms", median(lat[1]), "ms");
  out.layer("pipeline.collect_s", ts.collect_s, "s");
  out.layer("pipeline.pca_s", ts.pca_s, "s");
  out.layer("linalg.eigensolve_s", ts.eigensolve_s, "s");
  out.layer("pipeline.gmm_s", ts.gmm_s, "s");
  out.layer("pipeline.calibrate_s", ts.calibrate_s, "s");
  out.layer("obs.journal_records", static_cast<double>(c.journal_records),
            "count");
  out.layer("obs.incidents_committed", static_cast<double>(c.incidents),
            "count");
  out.layer("fp_ratio", c.fp_ratio(), "ratio");
  out.layer("detect_latency_intervals", c.detect_latency, "intervals");
  out.layer("recovery_intervals", c.recovery, "intervals");
  out.layer("retrain.published", static_cast<double>(c.published), "count");
  out.layer("retrain.rejected", static_cast<double>(c.rejected), "count");
}

std::string counts_line(const Counts& c) {
  return fmt("counts: clean intervals %llu, clean alarms %llu (fp_ratio "
             "%.6f), detect latency %.4f, recovery %.4f, accesses/interval "
             "%.3f, journal records %llu, incidents %llu, published %llu, "
             "rejected %llu, window rows %llu\n",
             static_cast<unsigned long long>(c.clean_intervals),
             static_cast<unsigned long long>(c.clean_alarms), c.fp_ratio(),
             c.detect_latency, c.recovery, c.accesses_per_interval,
             static_cast<unsigned long long>(c.journal_records),
             static_cast<unsigned long long>(c.incidents),
             static_cast<unsigned long long>(c.published),
             static_cast<unsigned long long>(c.rejected),
             static_cast<unsigned long long>(c.window_rows));
}

/// Accounting and output checks shared by the serial workloads (the scrapes
/// are accounted once per scraper, by the caller).
void account(Outcome& out, const Phase& p, const char* name) {
  out.attempted += p.intervals;
  out.failed += p.dropped + p.retrain_errors;
  out.check(p.dropped == 0, fmt("%s: %llu intervals dropped or scored twice",
                                name,
                                static_cast<unsigned long long>(p.dropped)));
  out.check(p.mismatched_passes == 0,
            fmt("%s: %llu passes did not reproduce pass 0's verdicts", name,
                static_cast<unsigned long long>(p.mismatched_passes)));
  out.check(p.stages.mismatches == 0,
            fmt("%s: %llu stage-by-stage re-scores differ from the served "
                "verdict",
                name, static_cast<unsigned long long>(p.stages.mismatches)));
}

void emit_serial_e2e(Outcome& out, const Phase& p, double setup_s,
                     double train_s, double bytes_session) {
  out.e2e("setup_s", setup_s, "s");
  out.e2e("train_s", train_s, "s");
  // Median over passes: a preemption burst slows one pass, not the figure.
  out.e2e("intervals_per_s", 1e6 / median(p.pass_us), "1/s");
  out.e2e("analyze_us_p50", quantile(p.analyze_us, 0.5), "us");
  out.e2e("analyze_us_p90", quantile(p.analyze_us, 0.9), "us");
  out.e2e("round_ms_p50", quantile(p.round_ms, 0.5), "ms");
  out.e2e("round_ms_p90", quantile(p.round_ms, 0.9), "ms");
  out.e2e("scrape_ms_p50", p.scraper->p50_ms(), "ms");
  out.e2e("peak_rss_mb",
          static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0), "MB");
  out.e2e("bytes_per_session", bytes_session, "B");
}

std::string phase_line(const char* label, const Phase& p) {
  return fmt("%s: %llu passes, %llu intervals, sim %.3f s + score %.3f s "
             "(%.4f us/interval; per pass min %.3f median %.3f max %.3f), "
             "analyze p50 %.3f us p90 %.3f us, "
             "%llu scrapes (%llu failed, max start lag %.2f ms)\n",
             label, static_cast<unsigned long long>(p.passes),
             static_cast<unsigned long long>(p.intervals), p.sim_s, p.score_s,
             p.us_per_interval(), quantile(p.pass_us, 0.0),
             quantile(p.pass_us, 0.5), quantile(p.pass_us, 1.0),
             quantile(p.analyze_us, 0.5),
             quantile(p.analyze_us, 0.9),
             static_cast<unsigned long long>(p.scraper->attempted()),
             static_cast<unsigned long long>(p.scraper->failed()),
             p.scraper->max_start_lag_ms());
}

// --- secure_core ----------------------------------------------------------

constexpr std::size_t kCoreNormalStreams = 8;
constexpr std::size_t kCoreStreamIntervals = 500;
constexpr std::uint64_t kCoreTrigger = 250;

std::vector<StreamSpec> secure_core_streams(std::uint64_t seed) {
  std::vector<StreamSpec> specs;
  for (std::size_t i = 0; i < kCoreNormalStreams; ++i) {
    specs.push_back({"", stream_seed(seed, i), kCoreStreamIntervals, 0, false});
  }
  const char* attacks[] = {"app_addition", "shellcode", "rootkit"};
  for (std::size_t a = 0; a < 3; ++a) {
    specs.push_back({attacks[a], stream_seed(seed, 100 + a),
                     kCoreStreamIntervals, kCoreTrigger, false});
  }
  return specs;
}

/// One secure_core pass: simulate every stream, then score each frozen
/// stream serially through a fresh Session with incidents attached.
void secure_core_pass(PaperSetup& s, const engine::DetectionEngine& engine,
                      const std::vector<StreamSpec>& specs, bool traced,
                      Phase& p) {
  Clock::time_point t0 = Clock::now();
  std::vector<SimmedStream> streams;
  streams.reserve(specs.size());
  for (const auto& spec : specs) streams.push_back(simulate(s.config, spec));
  p.sim_s += seconds_between(t0, Clock::now());

  const std::uint64_t incidents0 = s.incidents->total_committed();
  std::vector<std::vector<Verdict>> verdicts(specs.size());
  std::uint64_t journal_records = 0;
  t0 = Clock::now();
  for (std::size_t k = 0; k < specs.size(); ++k) {
    engine::Session session = engine.new_session();
    session.attach_incidents(obs::IncidentOptions{}, s.incidents);
    s.server->set_journal(session.journal_ptr());
    s.server->set_model_health(session.model_health());
    s.server->set_history(session.score_history());
    const HeatMapTrace& maps = streams[k].maps;
    verdicts[k].reserve(maps.size());
    for (std::size_t i = 0; i < maps.size(); ++i) {
      const Clock::time_point a = Clock::now();
      const Verdict v = session.analyze(maps[i]);
      const Clock::time_point b = Clock::now();
      const double us = us_between(a, b);
      p.analyze_us.push_back(us);
      p.round_ms.push_back((streams[k].next_us[i] + us) / 1000.0);
      verdicts[k].push_back(v);
      if (traced) {
        p.analyze_us_sum += us;
        p.stages.rescore(session.model(), maps[i], v);
      }
    }
    journal_records += session.journal().total_appended();
  }
  p.score_s += seconds_between(t0, Clock::now());

  std::uint64_t n = 0;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    p.dropped += index_faults(verdicts[k], specs[k].intervals);
    n += verdicts[k].size();
    if (traced) {
      for (double us : streams[k].next_us) p.sim_us_sum += us;
    }
  }
  p.intervals += n;

  Counts c;
  double latency_sum = 0.0;
  double accesses = 0.0;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const auto& spec = specs[k];
    for (const auto& m : streams[k].maps) {
      accesses += static_cast<double>(m.total_accesses());
    }
    std::optional<std::uint64_t> first_alarm;
    for (const Verdict& v : verdicts[k]) {
      const bool clean = spec.attack.empty() || v.interval_index < spec.trigger;
      if (clean) {
        ++c.clean_intervals;
        c.clean_alarms += v.anomalous;
      } else if (v.anomalous && !first_alarm) {
        first_alarm = v.interval_index;
      }
    }
    if (!spec.attack.empty()) {
      // Inclusive: detection on the trigger interval itself counts 1; a
      // miss counts the whole post-trigger length.
      latency_sum += first_alarm
                         ? static_cast<double>(*first_alarm - spec.trigger + 1)
                         : static_cast<double>(spec.intervals - spec.trigger);
    }
  }
  c.detect_latency = latency_sum / 3.0;
  c.accesses_per_interval = accesses / static_cast<double>(std::max<std::uint64_t>(1, n));
  c.journal_records = journal_records;
  c.incidents = s.incidents->total_committed() - incidents0;

  if (!p.counts) {
    p.counts = c;
    p.first_verdicts = std::move(verdicts);
  } else {
    bool same = *p.counts == c;
    for (std::size_t k = 0; same && k < specs.size(); ++k) {
      same = verdicts[k].size() == p.first_verdicts[k].size();
      for (std::size_t i = 0; same && i < verdicts[k].size(); ++i) {
        same = same_verdict(verdicts[k][i], p.first_verdicts[k][i]);
      }
    }
    p.mismatched_passes += !same;
  }
  ++p.passes;
}

/// Repeat `plain_pass` for `seconds`. A traced run interleaves one
/// `traced_pass` after each plain pass and runs twice as long, so the two
/// phases see the same host states and the per-layer table can be held
/// against the untraced time per interval.
template <typename PlainFn, typename TracedFn>
void run_phases(Phase& plain, Phase* traced, PaperSetup& s,
                const std::vector<std::string>& routes, double seconds,
                PlainFn plain_pass, TracedFn traced_pass) {
  auto scraper = std::make_shared<Scraper>(s.server->port(), routes,
                                           std::chrono::milliseconds(50));
  plain.scraper = scraper;
  if (traced != nullptr) traced->scraper = scraper;
  const auto timed = [](Phase& p, auto& pass) {
    const double serve0 = p.sim_s + p.score_s - p.attempt_call_s;
    const std::uint64_t n0 = p.intervals;
    pass();
    const double serve = p.sim_s + p.score_s - p.attempt_call_s - serve0;
    p.pass_us.push_back(serve * 1e6 / static_cast<double>(p.intervals - n0));
  };
  const double budget = traced != nullptr ? 2.0 * seconds : seconds;
  const Clock::time_point t0 = Clock::now();
  scraper->start();
  do {
    timed(plain, plain_pass);
    if (traced != nullptr) timed(*traced, traced_pass);
  } while (seconds_between(t0, Clock::now()) < budget);
  scraper->stop();
}

void account_scrapes(Outcome& out, const Scraper& scraper) {
  out.attempted += scraper.attempted();
  out.failed += scraper.failed();
}

}  // namespace

Outcome run_secure_core(const RunArgs& args, const RunDir& dir) {
  Outcome out;
  PaperSetup s = paper_setup(dir);
  const engine::DetectionEngine engine = s.pipe->make_engine();
  // Idle session so /model answers before the first stream is attached.
  engine::Session idle = engine.new_session();
  s.server->set_model_health(idle.model_health());
  const double setup_s = seconds_between(args.process_start, Clock::now());

  const double bps = bytes_per_session(
      [&] {
        engine::Session session = engine.new_session();
        session.attach_incidents(obs::IncidentOptions{}, s.incidents);
        return session;
      },
      64);

  const std::vector<StreamSpec> specs = secure_core_streams(args.seed);
  const std::vector<std::string> routes = {"/metrics", "/model"};
  Phase plain;
  Phase traced;
  run_phases(plain, args.trace ? &traced : nullptr, s, routes, args.seconds,
             [&] { secure_core_pass(s, engine, specs, false, plain); },
             [&] { secure_core_pass(s, engine, specs, true, traced); });
  account(out, plain, "secure_core");
  account_scrapes(out, *plain.scraper);
  emit_serial_e2e(out, plain, setup_s, s.train_s, bps);
  out.report += phase_line("untraced", plain);
  out.report += counts_line(*plain.counts);

  if (args.trace) {
    account(out, traced, "secure_core traced");
    out.check(*traced.counts == *plain.counts,
              "secure_core: traced counts differ from the untraced run");
    const TrainStages ts = time_training_stages(s.config);
    emit_common_layers(out, traced, ts, *traced.counts);
    out.report += phase_line("traced", traced);
    out.report += counts_line(*traced.counts);

    const double n = static_cast<double>(traced.intervals);
    const StageSums& st = traced.stages;
    const double sn = static_cast<double>(st.n);
    const double analyze = traced.analyze_us_sum / n;
    const double to_double = st.to_double / sn;
    const double project = st.project / sn;
    const double gmm = st.gmm / sn;
    const double score = st.score / sn;
    std::vector<LayerRow> rows = {
        {"sim", "SimIntervalSource::next", traced.sim_us_sum / n},
        {"sim", "System construction (sim leg - next calls)",
         (traced.sim_s * 1e6 - traced.sim_us_sum) / n},
        {"core", "HeatMap::as_vector_into", to_double},
        {"core", "Eigenmemory::project_into", project},
        {"core", "Gmm::log_density (scratch)", gmm},
        {"core", "score_snapshot - project - gmm", score - project - gmm},
        {"obs", "Session::analyze - score_snapshot - to_double",
         analyze - score - to_double},
    };
    out.report += layer_table(rows, plain.us_per_interval(),
                              traced.us_per_interval());
    out.report += fmt("training stages: collect %.3f s, Eigenmemory::fit "
                      "%.3f s (eigen_symmetric %.3f s), Gmm fit %.3f s, "
                      "calibrate %.3f s\n",
                      ts.collect_s, ts.pca_s, ts.eigensolve_s, ts.gmm_s,
                      ts.calibrate_s);
  }
  s.server->stop();
  return out;
}

// --- drift ----------------------------------------------------------------

namespace {

constexpr std::size_t kDriftSegments = 6;
constexpr std::size_t kDriftSegmentIntervals = 400;
/// Analyze calls after a retrain attempt left out of the percentiles.
constexpr std::size_t kAttemptShadow = 8;

std::vector<StreamSpec> drift_segments(std::uint64_t seed) {
  std::vector<StreamSpec> specs;
  for (std::size_t k = 0; k < kDriftSegments; ++k) {
    specs.push_back({"", stream_seed(seed, 200 + k), kDriftSegmentIntervals, 0,
                     k % 2 == 1});
  }
  return specs;
}

engine::RetrainManager::Options serve_retrain_options() {
  // `mhm_tool serve --auto-retrain` defaults, run inline so verdicts are
  // deterministic.
  engine::RetrainManager::Options ro;
  ro.sustain = 32;
  ro.cooldown = 128;
  ro.min_window = 96;
  ro.gmm_restarts = 2;
  ro.background = false;
  return ro;
}

/// One drift pass: simulate the alternating segments, then stream them
/// through one Session (512-row clean window) with an inline RetrainManager
/// publishing into this pass's own registry.
void drift_pass(PaperSetup& s, const RunDir& dir,
                const std::vector<StreamSpec>& specs, bool traced, Phase& p) {
  Clock::time_point t0 = Clock::now();
  std::vector<SimmedStream> segments;
  for (const auto& spec : specs) segments.push_back(simulate(s.config, spec));
  p.sim_s += seconds_between(t0, Clock::now());

  // Renumber intervals into one continuous stream, as serve does.
  std::vector<const HeatMap*> maps;
  std::vector<const double*> next_us;
  std::vector<std::size_t> segment_start;
  std::uint64_t idx = 0;
  for (auto& seg : segments) {
    segment_start.push_back(maps.size());
    for (std::size_t i = 0; i < seg.maps.size(); ++i) {
      seg.maps[i].interval_index = idx++;
      maps.push_back(&seg.maps[i]);
      next_us.push_back(&seg.next_us[i]);
    }
  }

  const std::string reg_dir = dir.sub("registry-" + std::to_string(p.passes) +
                                      (traced ? "-traced" : ""));
  engine::DetectionEngine engine(s.pipe->detector->snapshot());
  engine::SessionOptions so;
  so.clean_window_capacity = 512;
  engine::Session session = engine.new_session(so);
  auto registry = std::make_shared<ModelRegistry>(reg_dir);
  // Shared with the /model provider: the serve thread may still hold a
  // copy of it after set_retrain(nullptr) returns.
  auto manager_ptr = std::make_shared<engine::RetrainManager>(
      engine, session.clean_window(), registry, serve_retrain_options());
  engine::RetrainManager& manager = *manager_ptr;
  std::vector<std::uint8_t> status(maps.size(), 0);
  session.set_status_hook(
      [&](std::uint64_t interval, obs::ModelHealthStatus st) {
        if (interval < status.size()) {
          status[interval] = static_cast<std::uint8_t>(st);
        }
        manager.note(interval, st);
      });
  manager.set_publish_hook([&session](const engine::RetrainReport& r) {
    session.annotate_next("model auto-retrained: published version " +
                          std::to_string(r.version));
  });
  s.server->set_journal(session.journal_ptr());
  s.server->set_model_health(session.model_health());
  s.server->set_history(session.score_history());
  s.server->set_retrain([manager_ptr] { return manager_ptr->json(); });

  std::vector<Verdict> verdicts;
  verdicts.reserve(maps.size());
  bool pickup_next = false;
  std::size_t shadow = 0;
  std::size_t transitions = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < maps.size(); ++i) {
    const std::uint64_t pub0 = manager.published();
    const std::uint64_t rej0 = manager.rejected_count();
    const Clock::time_point a = Clock::now();
    std::optional<Verdict> v;
    try {
      v = session.analyze(*maps[i]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: analyze/retrain threw: %s\n", e.what());
      ++p.retrain_errors;
    }
    const Clock::time_point b = Clock::now();
    const double us = us_between(a, b);
    if (!v) continue;
    verdicts.push_back(*v);
    const std::uint64_t pub1 = manager.published();
    const bool attempted = pub1 != pub0 || manager.rejected_count() != rej0;
    if (pub1 != pub0) p.publish_call_s.push_back(us / 1e6);
    if (attempted) {
      // How many attempts a pass makes swings with the seed (0 to ~60,
      // 1 ms to 0.1 s each), so calls that ran one are kept out of the
      // serving metrics and reported as the retrain layer instead. So are
      // the percentiles of the next kAttemptShadow calls, which refill the
      // caches a full fit evicted (the first one runs ~3x slower).
      p.attempt_call_s += us / 1e6;
      shadow = kAttemptShadow;
    } else if (shadow > 0) {
      --shadow;
    } else {
      p.analyze_us.push_back(us);
      p.round_ms.push_back((*next_us[i] + us) / 1000.0);
    }
    if (session.transitions().size() != transitions) {
      // The session rebound its health monitor at the swap boundary.
      transitions = session.transitions().size();
      s.server->set_model_health(session.model_health());
    }
    if (traced) {
      p.sim_us_sum += *next_us[i];
      if (pickup_next) p.pickup_us.push_back(us);
      pickup_next = pub1 != pub0;
      if (attempted) {
        p.attempt_s.push_back(us / 1e6);
        p.fit_s.push_back(manager.last_report().train_seconds);
      } else {
        p.analyze_us_sum += us;
        p.stages.rescore(session.model(), *maps[i], *v);
      }
    }
  }
  p.score_s += seconds_between(t0, Clock::now());
  s.server->set_retrain(nullptr);

  p.dropped += index_faults(verdicts, maps.size());
  p.intervals += verdicts.size();

  Counts c;
  std::uint64_t last_version = 0;
  bool monotone = true;
  for (const Verdict& v : verdicts) {
    monotone &= v.model_version >= last_version;
    last_version = v.model_version;
  }
  double accesses = 0.0;
  for (const HeatMap* m : maps) accesses += static_cast<double>(m->total_accesses());
  c.accesses_per_interval = accesses / static_cast<double>(maps.size());
  double recovery_sum = 0.0;
  double detect_sum = 0.0;
  std::size_t switches_to_changed = 0;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const std::size_t begin = segment_start[k];
    const std::size_t end = begin + segments[k].maps.size();
    if (!specs[k].changed_mode) {
      for (std::size_t i = begin; i < end && i < verdicts.size(); ++i) {
        ++c.clean_intervals;
        c.clean_alarms += verdicts[i].anomalous;
      }
    }
    if (k == 0 || begin == 0 || begin > verdicts.size()) continue;
    const std::uint64_t before = verdicts[begin - 1].model_version;
    double rec = static_cast<double>(end - begin);
    for (std::size_t i = begin; i < end && i < verdicts.size(); ++i) {
      if (verdicts[i].model_version > before) {
        rec = static_cast<double>(i - begin + 1);
        break;
      }
    }
    recovery_sum += rec;
    if (specs[k].changed_mode) {
      ++switches_to_changed;
      double det = static_cast<double>(end - begin);
      for (std::size_t i = begin; i < end; ++i) {
        if (status[i] != 0) {
          det = static_cast<double>(i - begin + 1);
          break;
        }
      }
      detect_sum += det;
    }
  }
  c.recovery = recovery_sum / static_cast<double>(specs.size() - 1);
  c.detect_latency = detect_sum / static_cast<double>(switches_to_changed);
  c.journal_records = session.journal().total_appended();
  c.published = manager.published();
  c.rejected = manager.rejected_count();
  c.window_rows = session.clean_window()->size();

  if (traced && !p.counts) {
    // ModelRegistry::save, timed from outside on the served model.
    ModelRegistry probe(dir.sub("registry-save-probe"));
    const DetectorModel model =
        DetectorModel::from_snapshot(*engine.current_model());
    const Clock::time_point a = Clock::now();
    probe.save(model);
    p.save_ms = us_between(a, Clock::now()) / 1000.0;
  }

  if (!p.counts) {
    p.counts = c;
    p.first_verdicts = {std::move(verdicts)};
  } else {
    bool same = *p.counts == c &&
                verdicts.size() == p.first_verdicts[0].size();
    for (std::size_t i = 0; same && i < verdicts.size(); ++i) {
      same = same_verdict(verdicts[i], p.first_verdicts[0][i]);
    }
    p.mismatched_passes += !same;
  }
  p.nonmonotone += !monotone;
  std::filesystem::remove_all(reg_dir);
  ++p.passes;
}

}  // namespace

Outcome run_drift(const RunArgs& args, const RunDir& dir) {
  Outcome out;
  PaperSetup s = paper_setup(dir);
  const engine::DetectionEngine engine = s.pipe->make_engine();
  engine::SessionOptions so;
  so.clean_window_capacity = 512;
  engine::Session idle = engine.new_session(so);
  s.server->set_model_health(idle.model_health());
  const double setup_s = seconds_between(args.process_start, Clock::now());

  const double bps =
      bytes_per_session([&] { return engine.new_session(so); }, 64);

  const std::vector<StreamSpec> specs = drift_segments(args.seed);
  const std::vector<std::string> routes = {"/metrics", "/model"};
  Phase plain;
  Phase traced;
  run_phases(plain, args.trace ? &traced : nullptr, s, routes, args.seconds,
             [&] { drift_pass(s, dir, specs, false, plain); },
             [&] { drift_pass(s, dir, specs, true, traced); });
  account(out, plain, "drift");
  account_scrapes(out, *plain.scraper);
  out.check(plain.nonmonotone == 0,
            "drift: a verdict's model_version went backwards");
  emit_serial_e2e(out, plain, setup_s, s.train_s, bps);
  out.report += phase_line("untraced", plain);
  out.report += counts_line(*plain.counts);
  out.report += fmt("retrain_s (median analyze call that published): %.6f s "
                    "over %zu publishes\n",
                    median(plain.publish_call_s), plain.publish_call_s.size());

  if (args.trace) {
    account(out, traced, "drift traced");
    out.check(traced.nonmonotone == 0,
              "drift: a traced verdict's model_version went backwards");
    out.check(*traced.counts == *plain.counts,
              "drift: traced counts differ from the untraced run");
    const TrainStages ts = time_training_stages(s.config);
    emit_common_layers(out, traced, ts, *traced.counts);
    out.report += phase_line("traced", traced);
    out.report += counts_line(*traced.counts);

    const double n = static_cast<double>(traced.intervals);
    const StageSums& st = traced.stages;
    // Per-interval rows cover the calls the serving metrics cover: every
    // interval's simulation, and the analyze calls that ran no attempt.
    const double to_double = st.to_double / n;
    const double project = st.project / n;
    const double gmm = st.gmm / n;
    const double score = st.score / n;
    const double analyze = traced.analyze_us_sum / n;
    std::vector<LayerRow> rows = {
        {"sim", "SimIntervalSource::next", traced.sim_us_sum / n},
        {"sim", "System construction (sim leg - next calls)",
         (traced.sim_s * 1e6 - traced.sim_us_sum) / n},
        {"core", "HeatMap::as_vector_into", to_double},
        {"core", "Eigenmemory::project_into", project},
        {"core", "Gmm::log_density (scratch)", gmm},
        {"core", "score_snapshot - project - gmm", score - project - gmm},
        {"obs", "Session::analyze - score_snapshot - to_double",
         analyze - score - to_double},
    };
    out.report += layer_table(rows, plain.us_per_interval(),
                              traced.us_per_interval());
    out.report += fmt(
        "retrain layers: attempts %zu, retrain.attempt_s mean %.6f s, "
        "retrain.fit_s mean %.6f s, retrain.save_ms %.4f ms, "
        "engine.swap_pickup_us mean %.3f us, retrain.window_rows %llu\n",
        traced.attempt_s.size(), mean(traced.attempt_s), mean(traced.fit_s),
        traced.save_ms, mean(traced.pickup_us),
        static_cast<unsigned long long>(traced.counts->window_rows));
    out.report += fmt("training stages: collect %.3f s, Eigenmemory::fit "
                      "%.3f s (eigen_symmetric %.3f s), Gmm fit %.3f s, "
                      "calibrate %.3f s\n",
                      ts.collect_s, ts.pca_s, ts.eigensolve_s, ts.gmm_s,
                      ts.calibrate_s);
  }
  s.server->stop();
  return out;
}

}  // namespace perfbench
