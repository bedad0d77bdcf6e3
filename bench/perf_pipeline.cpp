// PERF — deterministic parallel runtime (train + analyze).
//
// Trains the full pipeline (trace collection -> eigenmemory PCA -> GMM EM)
// at several thread counts, times every stage, verifies the outputs are
// bit-identical across thread counts (the runtime's determinism contract),
// and appends the numbers to BENCH_pipeline.json so later PRs have a perf
// trajectory. Field documentation lives in docs/FILE_FORMATS.md.
//
// MHM_BENCH_FAST=1 shrinks the workload as usual; the JSON records which
// mode produced it. Speedups are relative to the threads=1 row; on a
// single-core host they hover around 1.0 by construction (the JSON records
// hardware_threads so the trajectory stays interpretable).

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "common/parallel.hpp"
#include "obs/incident.hpp"
#include "obs/obs.hpp"
#include "obs/prof.hpp"
#include "obs/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct StageTimes {
  std::size_t threads = 0;
  double collect_seconds = 0.0;
  double pca_seconds = 0.0;
  double gmm_seconds = 0.0;
  double train_total_seconds = 0.0;
  double scenario_batch_seconds = 0.0;
  double analyze_mean_us = 0.0;
  std::vector<double> probe_scores;  ///< For the bit-identical check.
};

}  // namespace

int main() {
  using namespace mhm;
  using namespace mhm::bench;

  print_header("PERF — deterministic parallel runtime (train + analyze)");

  const sim::SystemConfig cfg = bench_config(1);
  const pipeline::ProfilingPlan plan = bench_plan();
  const AnomalyDetector::Options opts = bench_detector_options();
  const std::size_t hardware = configured_threads();

  std::vector<std::size_t> counts = {1, 2, 4};
  if (hardware > 4) counts.push_back(hardware);

  std::vector<StageTimes> rows;
  // Kept from the last sweep iteration for the obs-overhead measurement
  // and the fast-PCA leg.
  std::optional<engine::DetectionEngine> overhead_engine;
  HeatMapTrace overhead_validation;
  std::vector<std::vector<double>> overhead_train_raw;
  for (const std::size_t threads : counts) {
    set_global_threads(threads);
    StageTimes row;
    row.threads = threads;

    const auto t_train0 = Clock::now();
    auto t0 = Clock::now();
    const HeatMapTrace training = pipeline::collect_normal_trace(cfg, plan);
    pipeline::ProfilingPlan validation_plan = plan;
    validation_plan.runs = std::max<std::size_t>(1, plan.runs / 5);
    validation_plan.seed_base = plan.seed_base + plan.runs + 1000;
    const HeatMapTrace validation =
        pipeline::collect_normal_trace(cfg, validation_plan);
    row.collect_seconds = seconds_since(t0);

    std::vector<std::vector<double>> train_raw;
    train_raw.reserve(training.size());
    for (const auto& m : training) train_raw.push_back(m.as_vector());

    t0 = Clock::now();
    // The serving trainer's PCA (AnomalyDetector::train with a fixed L').
    const Eigenmemory pca = Eigenmemory::fit_topk(
        train_raw, {.components = opts.pca.components});
    const auto reduced = pca.project_all(train_raw);
    row.pca_seconds = seconds_since(t0);

    t0 = Clock::now();
    Gmm gmm = Gmm::fit(reduced, opts.gmm);
    row.gmm_seconds = seconds_since(t0);

    std::vector<double> validation_scores;
    validation_scores.reserve(validation.size());
    for (const auto& v : validation) {
      validation_scores.push_back(gmm.log10_density(pca.project(v.as_vector())));
    }
    const engine::DetectionEngine engine(ModelSnapshot::assemble(
        pca, std::move(gmm), ThresholdCalibrator(validation_scores),
        opts.primary_p));
    row.train_total_seconds = seconds_since(t_train0);

    // Scenario fan-out: independent seeded systems, one session each
    // (run_scenarios parallelizes over specs).
    const SimTime interval = cfg.monitor.interval;
    std::vector<pipeline::ScenarioSpec> specs;
    for (std::uint64_t s = 0; s < 4; ++s) {
      specs.push_back(pipeline::ScenarioSpec{
          .attack = "", .trigger_time = 0,
          .duration = (fast_mode() ? 50 : 100) * interval,
          .seed = 20000 + s});
    }
    t0 = Clock::now();
    const auto scenario_runs = pipeline::run_scenarios(cfg, specs, &engine);
    row.scenario_batch_seconds = seconds_since(t0);

    // Online analyze latency (serial — the secure core scores one interval
    // at a time) and the determinism probe: score every validation map.
    reset_analysis_time();
    engine::Session session = engine.new_session();
    row.probe_scores.reserve(validation.size());
    for (const auto& m : validation) {
      row.probe_scores.push_back(session.analyze(m).log10_density);
    }
    row.analyze_mean_us = analysis_mean_us();
    for (const auto& run : scenario_runs) {
      const std::vector<double> run_dens = run.log10_densities();
      row.probe_scores.insert(row.probe_scores.end(), run_dens.begin(),
                              run_dens.end());
    }
    if (threads == counts.back()) {
      overhead_engine.emplace(engine);
      overhead_validation = validation;
      overhead_train_raw = train_raw;
    }
    rows.push_back(std::move(row));
    std::printf(
        "[bench] threads=%zu collect=%.2fs pca=%.2fs gmm=%.2fs "
        "train_total=%.2fs scenarios=%.2fs analyze=%.1fus\n",
        threads, rows.back().collect_seconds, rows.back().pca_seconds,
        rows.back().gmm_seconds, rows.back().train_total_seconds,
        rows.back().scenario_batch_seconds, rows.back().analyze_mean_us);
  }
  set_global_threads(0);  // Back to the MHM_THREADS / hardware default.

  // Fast top-k PCA vs the exact dense eigensolve: the speedup the
  // continuous-training loop is built on. Same training matrix, same
  // retained-component count; the exact solver is the oracle the retrain
  // path no longer pays for. The retained subspace must also capture the
  // same variance (sum of kept eigenvalues within 2%) — a fast path that
  // found a worse subspace would be speed bought with accuracy. In paper
  // mode the ≥5x speedup is ENFORCED by exit code; at fast-mode scale the
  // matrix is too small for the asymptotics to show, so the number is
  // recorded but not judged.
  auto t_pca = Clock::now();
  const Eigenmemory exact_pca = Eigenmemory::fit(overhead_train_raw, opts.pca);
  const double pca_exact_seconds = seconds_since(t_pca);
  Eigenmemory::TopkOptions topk;
  topk.components = exact_pca.components();
  t_pca = Clock::now();
  const Eigenmemory fast_pca = Eigenmemory::fit_topk(overhead_train_raw, topk);
  const double train_pca_fast_seconds = seconds_since(t_pca);
  const double pca_speedup_vs_exact =
      train_pca_fast_seconds > 0.0
          ? pca_exact_seconds / train_pca_fast_seconds
          : 0.0;
  double exact_captured = 0.0;
  for (const double ev : exact_pca.eigenvalues()) exact_captured += ev;
  double fast_captured = 0.0;
  for (const double ev : fast_pca.eigenvalues()) fast_captured += ev;
  const double pca_captured_ratio =
      exact_captured > 0.0 ? fast_captured / exact_captured : 1.0;
  const bool pca_fast_ok =
      pca_captured_ratio >= 0.98 &&
      (fast_mode() || pca_speedup_vs_exact >= 5.0);
  std::printf(
      "[bench] fast top-k PCA: exact=%.3fs topk=%.3fs (%.1fx, captured "
      "variance ratio %.4f) — %s\n",
      pca_exact_seconds, train_pca_fast_seconds, pca_speedup_vs_exact,
      pca_captured_ratio,
      pca_fast_ok ? (fast_mode() ? "recorded (fast mode, not judged)"
                                 : "within the >=5x contract")
                  : "CONTRACT VIOLATION");

  // Observability overhead: the same fixed workload (scenario batch + serial
  // analyze sweep) timed with the obs layer enabled and disabled. The
  // contract is <2% — counters are sharded relaxed atomics and the journal
  // only does O(L) work on alarms, so the gap should be noise-level.
  const SimTime interval = cfg.monitor.interval;
  std::vector<pipeline::ScenarioSpec> overhead_specs;
  for (std::uint64_t s = 0; s < 4; ++s) {
    overhead_specs.push_back(pipeline::ScenarioSpec{
        .attack = "", .trigger_time = 0,
        .duration = (fast_mode() ? 50 : 100) * interval,
        .seed = 20000 + s});
  }
  // The analyze sweep is repeated until it dominates the workload: the
  // per-interval record path (counters + histogram + journal append) is the
  // obs hot spot, and a multi-hundred-ms sample keeps timer noise well
  // under the 2% being measured.
  constexpr int kAnalyzeReps = 30;
  // `scores`, when given, receives the first repetition's scores.
  const auto analyze_sweep = [&](engine::Session& session,
                                 std::vector<double>* scores = nullptr) {
    double sink = 0.0;
    for (int rep = 0; rep < kAnalyzeReps; ++rep) {
      for (const auto& m : overhead_validation) {
        const double d = session.analyze(m).log10_density;
        sink += d;
        if (scores != nullptr && rep == 0) scores->push_back(d);
      }
    }
    return sink;
  };
  engine::Session overhead_session = overhead_engine->new_session();
  const auto obs_workload = [&] {
    const auto runs =
        pipeline::run_scenarios(cfg, overhead_specs, &*overhead_engine);
    return analyze_sweep(overhead_session) + static_cast<double>(runs.size());
  };
  const bool obs_was_enabled = obs::enabled();
  double obs_on_seconds = 1e300;
  double obs_off_seconds = 1e300;
  double obs_sink = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    obs::set_enabled(true);
    auto t_obs = Clock::now();
    obs_sink += obs_workload();
    obs_on_seconds = std::min(obs_on_seconds, seconds_since(t_obs));
    obs::set_enabled(false);
    t_obs = Clock::now();
    obs_sink += obs_workload();
    obs_off_seconds = std::min(obs_off_seconds, seconds_since(t_obs));
  }
  obs::set_enabled(obs_was_enabled);
  const double obs_overhead_pct =
      obs_off_seconds > 0.0
          ? 100.0 * (obs_on_seconds - obs_off_seconds) / obs_off_seconds
          : 0.0;
  std::printf("[bench] obs overhead: on=%.3fs off=%.3fs (%+.2f%%, sink %.1f)\n",
              obs_on_seconds, obs_off_seconds, obs_overhead_pct, obs_sink);

  // Monitoring-endpoint overhead: the same workload with the HTTP server
  // bound but no client connected. The serve thread sits in poll() the whole
  // time, so the contract is < 1% vs. the obs-enabled baseline.
  obs::set_enabled(true);
  obs::MonitorServer server;
  double server_on_seconds = 1e300;
  const bool server_started = server.start(obs::MonitorServer::Options{});
  if (server_started) {
    for (int rep = 0; rep < 3; ++rep) {
      const auto t_srv = Clock::now();
      obs_sink += obs_workload();
      server_on_seconds = std::min(server_on_seconds, seconds_since(t_srv));
    }
    server.stop();
  }
  obs::set_enabled(obs_was_enabled);
  const double server_overhead_pct =
      server_started && obs_on_seconds > 0.0
          ? 100.0 * (server_on_seconds - obs_on_seconds) / obs_on_seconds
          : 0.0;
  if (server_started) {
    std::printf("[bench] idle-server overhead: serving=%.3fs vs obs-only="
                "%.3fs (%+.2f%%)\n",
                server_on_seconds, obs_on_seconds, server_overhead_pct);
  } else {
    server_on_seconds = 0.0;
    std::printf("[bench] idle-server overhead: skipped (obs compiled out or "
                "bind failed)\n");
  }

  // Model-health overhead: the serial analyze sweep through a session with
  // the drift monitor attached vs. one without it. The hook reuses the score
  // and SPE analyze() already computed, so the marginal cost is a few P²
  // marker updates, two drift-detector adds, and one mutex acquisition per
  // interval — budgeted inside the same <2% obs contract.
  obs::set_enabled(true);
  engine::SessionOptions health_off_opts;
  health_off_opts.attach_health = false;
  engine::Session health_off_session =
      overhead_engine->new_session(health_off_opts);
  double health_on_seconds = 1e300;
  double health_off_seconds = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto t_mh = Clock::now();
    obs_sink += analyze_sweep(overhead_session);
    health_on_seconds = std::min(health_on_seconds, seconds_since(t_mh));
    t_mh = Clock::now();
    obs_sink += analyze_sweep(health_off_session);
    health_off_seconds = std::min(health_off_seconds, seconds_since(t_mh));
  }
  obs::set_enabled(obs_was_enabled);
  const double model_health_overhead_pct =
      health_off_seconds > 0.0
          ? 100.0 * (health_on_seconds - health_off_seconds) /
                health_off_seconds
          : 0.0;
  std::printf(
      "[bench] model-health overhead: on=%.3fs off=%.3fs (%+.2f%%)\n",
      health_on_seconds, health_off_seconds, model_health_overhead_pct);

  // History + incident overhead: the serial analyze sweep through a session
  // carrying the multi-resolution score history and an armed incident
  // recorder vs. one with both stripped. The history append is O(1) ring
  // arithmetic and the recorder is a bounded pre-ring plus burst bookkeeping
  // per interval (bundle commits are rate-limited and this workload is
  // normal traffic), so the gap shares the same <2% obs contract. The
  // model-health hook is detached on both sides so only the new layers are
  // in the difference.
  obs::set_enabled(true);
  engine::SessionOptions hist_off_opts = health_off_opts;
  hist_off_opts.history_raw = 0;
  engine::Session hist_off_session =
      overhead_engine->new_session(hist_off_opts);
  engine::Session hist_on_session =
      overhead_engine->new_session(health_off_opts);
  obs::IncidentStore::Options inc_store_opts;
  inc_store_opts.dir = ".";
  obs::IncidentOptions inc_opts;
  inc_opts.min_gap = 1ULL << 40;  // At most one bundle across the sweep.
  hist_on_session.attach_incidents(
      inc_opts, std::make_shared<obs::IncidentStore>(inc_store_opts));
  double history_on_seconds = 1e300;
  double history_off_seconds = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto t_hi = Clock::now();
    obs_sink += analyze_sweep(hist_on_session);
    history_on_seconds = std::min(history_on_seconds, seconds_since(t_hi));
    t_hi = Clock::now();
    obs_sink += analyze_sweep(hist_off_session);
    history_off_seconds = std::min(history_off_seconds, seconds_since(t_hi));
  }
  obs::set_enabled(obs_was_enabled);
  const double history_incident_overhead_pct =
      history_off_seconds > 0.0
          ? 100.0 * (history_on_seconds - history_off_seconds) /
                history_off_seconds
          : 0.0;
  std::printf(
      "[bench] history+incident overhead: on=%.3fs off=%.3fs (%+.2f%%)\n",
      history_on_seconds, history_off_seconds, history_incident_overhead_pct);

  // Continuous-profiler overhead: the serial analyze sweep with the stage
  // scopes live vs. MHM_PROF off, obs enabled on both sides so only the
  // profiler is in the difference. A scoring scope is one TSC read pair plus
  // two relaxed fetch_adds (hardware counters ride decimated entries only), so
  // the gap shares the same <2% obs contract — and unlike the other legs it
  // is ENFORCED: the exit code fails when the paired best-of-3 exceeds 2%.
  // Profiling must also never perturb scoring — the on/off score vectors
  // are compared bit-for-bit.
  obs::set_enabled(true);
  const bool prof_was_enabled = obs::prof::prof_enabled();
  std::vector<double> prof_on_scores;
  std::vector<double> prof_off_scores;
  double prof_on_seconds = 1e300;
  double prof_off_seconds = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    obs::prof::set_prof_enabled(true);
    auto t_pr = Clock::now();
    obs_sink += analyze_sweep(overhead_session,
                              rep == 0 ? &prof_on_scores : nullptr);
    prof_on_seconds = std::min(prof_on_seconds, seconds_since(t_pr));
    obs::prof::set_prof_enabled(false);
    t_pr = Clock::now();
    obs_sink += analyze_sweep(overhead_session,
                              rep == 0 ? &prof_off_scores : nullptr);
    prof_off_seconds = std::min(prof_off_seconds, seconds_since(t_pr));
  }
  obs::prof::set_prof_enabled(prof_was_enabled);
  obs::set_enabled(obs_was_enabled);
  const double prof_overhead_pct =
      prof_off_seconds > 0.0
          ? 100.0 * (prof_on_seconds - prof_off_seconds) / prof_off_seconds
          : 0.0;
  const bool prof_bit_identical = prof_on_scores == prof_off_scores;
  const bool prof_ok = prof_overhead_pct < 2.0 && prof_bit_identical;
  std::printf("[bench] profiler overhead: on=%.3fs off=%.3fs (%+.2f%%, "
              "counters=%s, scores %s) — %s\n",
              prof_on_seconds, prof_off_seconds, prof_overhead_pct,
              obs::prof::counter_source(),
              prof_bit_identical ? "bit-identical" : "DIVERGED",
              prof_ok ? "within the <2% contract" : "CONTRACT VIOLATION");

  bool bit_identical = true;
  for (const auto& row : rows) {
    if (row.probe_scores != rows.front().probe_scores) bit_identical = false;
  }

  TextTable table({"threads", "collect (s)", "PCA (s)", "GMM (s)",
                   "train total (s)", "speedup", "analyze (us)"});
  const double serial_total = rows.front().train_total_seconds;
  for (const auto& row : rows) {
    table.add_row({std::to_string(row.threads),
                   fmt_double(row.collect_seconds, 2),
                   fmt_double(row.pca_seconds, 2),
                   fmt_double(row.gmm_seconds, 2),
                   fmt_double(row.train_total_seconds, 2),
                   fmt_double(serial_total / row.train_total_seconds, 2) + "x",
                   fmt_double(row.analyze_mean_us, 1)});
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("bit-identical across thread counts: %s\n",
              bit_identical ? "yes" : "NO — DETERMINISM VIOLATION");

  std::FILE* json = std::fopen("BENCH_pipeline.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "[bench] cannot write BENCH_pipeline.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"perf_pipeline\",\n");
  std::fprintf(json, "  \"mode\": \"%s\",\n", fast_mode() ? "fast" : "paper");
  std::fprintf(json, "  \"hardware_threads\": %zu,\n", hardware);
  std::fprintf(json,
               "  \"config\": {\"granularity\": %llu, \"runs\": %zu, "
               "\"run_duration_ms\": %llu, \"pca_components\": %zu, "
               "\"gmm_components\": %zu, \"gmm_restarts\": %zu},\n",
               static_cast<unsigned long long>(cfg.monitor.granularity),
               plan.runs,
               static_cast<unsigned long long>(plan.run_duration / kMillisecond),
               opts.pca.components, opts.gmm.components, opts.gmm.restarts);
  std::fprintf(json, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    std::fprintf(json,
                 "    {\"threads\": %zu, \"collect_seconds\": %.6f, "
                 "\"pca_seconds\": %.6f, \"gmm_seconds\": %.6f, "
                 "\"train_total_seconds\": %.6f, "
                 "\"scenario_batch_seconds\": %.6f, "
                 "\"analyze_mean_us\": %.3f, "
                 "\"train_speedup_vs_serial\": %.4f}%s\n",
                 row.threads, row.collect_seconds, row.pca_seconds,
                 row.gmm_seconds, row.train_total_seconds,
                 row.scenario_batch_seconds, row.analyze_mean_us,
                 serial_total / row.train_total_seconds,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"best_train_speedup\": %.4f,\n",
               serial_total / [&] {
                 double best = rows.front().train_total_seconds;
                 for (const auto& r : rows) {
                   best = std::min(best, r.train_total_seconds);
                 }
                 return best;
               }());
  std::fprintf(json, "  \"pca_exact_seconds\": %.6f,\n", pca_exact_seconds);
  std::fprintf(json, "  \"train_pca_fast_seconds\": %.6f,\n",
               train_pca_fast_seconds);
  std::fprintf(json, "  \"pca_speedup_vs_exact\": %.4f,\n",
               pca_speedup_vs_exact);
  std::fprintf(json, "  \"pca_captured_ratio\": %.6f,\n", pca_captured_ratio);
  std::fprintf(json, "  \"obs_on_seconds\": %.6f,\n", obs_on_seconds);
  std::fprintf(json, "  \"obs_off_seconds\": %.6f,\n", obs_off_seconds);
  std::fprintf(json, "  \"obs_overhead_pct\": %.3f,\n", obs_overhead_pct);
  std::fprintf(json, "  \"server_on_seconds\": %.6f,\n", server_on_seconds);
  std::fprintf(json, "  \"server_overhead_pct\": %.3f,\n",
               server_overhead_pct);
  std::fprintf(json, "  \"model_health_on_seconds\": %.6f,\n",
               health_on_seconds);
  std::fprintf(json, "  \"model_health_off_seconds\": %.6f,\n",
               health_off_seconds);
  std::fprintf(json, "  \"model_health_overhead_pct\": %.3f,\n",
               model_health_overhead_pct);
  std::fprintf(json, "  \"history_incident_on_seconds\": %.6f,\n",
               history_on_seconds);
  std::fprintf(json, "  \"history_incident_off_seconds\": %.6f,\n",
               history_off_seconds);
  std::fprintf(json, "  \"history_incident_overhead_pct\": %.3f,\n",
               history_incident_overhead_pct);
  std::fprintf(json, "  \"prof_on_seconds\": %.6f,\n", prof_on_seconds);
  std::fprintf(json, "  \"prof_off_seconds\": %.6f,\n", prof_off_seconds);
  std::fprintf(json, "  \"prof_overhead_pct\": %.3f,\n", prof_overhead_pct);
  std::fprintf(json, "  \"prof_counter_source\": \"%s\",\n",
               obs::prof::counter_source());
  std::fprintf(json, "  \"prof_bit_identical\": %s,\n",
               prof_bit_identical ? "true" : "false");
  std::fprintf(json, "  \"bit_identical\": %s\n",
               bit_identical ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("[bench] wrote BENCH_pipeline.json\n");
  return (bit_identical && prof_ok && pca_fast_ok) ? 0 : 1;
}
