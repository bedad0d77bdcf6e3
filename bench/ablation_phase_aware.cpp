// Ablation A10 — pooled GMM vs phase-conditioned detection. The paper's
// GMM must rediscover the hyperperiod phases as mixture components; in a
// real-time system the phase of every interval is known, so conditioning
// on it (one Gaussian per phase, closed form — core/phase_detector) is the
// natural strengthening. Compare on false positives and on all three
// attack scenarios.

#include <cstdio>

#include "bench_support.hpp"
#include "common/stats.hpp"
#include "core/phase_detector.hpp"

int main() {
  using namespace mhm;
  using namespace mhm::bench;

  print_header("Ablation A10 — pooled GMM (paper) vs phase-aware detector");

  sim::SystemConfig cfg = bench_config(1);
  pipeline::ProfilingPlan plan;
  plan.runs = fast_mode() ? 2 : 5;
  plan.run_duration = fast_mode() ? 1 * kSecond : 2 * kSecond;

  AnomalyDetector::Options opts;
  opts.pca.components = 9;
  opts.gmm.components = 5;
  opts.gmm.restarts = 3;
  const auto pipe = pipeline::train_pipeline(cfg, plan, opts);

  PhaseAwareDetector::Options phase_opts;
  phase_opts.phases = static_cast<std::size_t>(
      sim::hyperperiod(cfg.tasks) / cfg.monitor.interval);
  const PhaseAwareDetector phase_det = PhaseAwareDetector::train(
      pipe.training, pipe.validation, pipe.det().eigenmemory(), phase_opts);

  const SimTime interval = cfg.monitor.interval;
  const SimTime duration = 400 * interval;
  const SimTime trigger = 100 * interval;

  pipeline::ScenarioRun normal_run = scored_scenario(
      cfg, nullptr, 0, duration, pipe, 14001);

  auto scenario_maps = [&](const std::string& name) {
    auto attack = attacks::make_scenario(name);
    return scored_scenario(cfg, attack.get(), trigger, duration, pipe, 14002);
  };
  const pipeline::ScenarioRun app = scenario_maps("app_addition");
  const pipeline::ScenarioRun shell = scenario_maps("shellcode");
  const pipeline::ScenarioRun rootkit = scenario_maps("rootkit");

  struct Row {
    const char* name;
    double fp;
    double det_app;
    double det_shell;
    double det_rootkit;
  };
  auto eval = [&](auto&& is_anomalous) {
    Row r{};
    std::size_t fp = 0;
    for (const auto& m : normal_run.maps) fp += is_anomalous(m);
    r.fp = static_cast<double>(fp) /
           static_cast<double>(normal_run.maps.size());
    auto rate = [&](const pipeline::ScenarioRun& run) {
      std::size_t hits = 0;
      std::size_t total = 0;
      for (const auto& m : run.maps) {
        if (m.interval_index < run.trigger_interval) continue;
        ++total;
        hits += is_anomalous(m);
      }
      return static_cast<double>(hits) / static_cast<double>(total);
    };
    r.det_app = rate(app);
    r.det_shell = rate(shell);
    r.det_rootkit = rate(rootkit);
    return r;
  };

  const double theta = pipe.theta_1.log10_value;
  engine::Session session = pipe.make_engine().new_session();
  Row pooled = eval([&](const HeatMap& m) {
    return session.analyze(m).log10_density < theta;
  });
  pooled.name = "pooled GMM, J=5 (paper)";
  Row phased = eval([&](const HeatMap& m) { return phase_det.anomalous(m); });
  phased.name = "phase-aware (1 Gaussian/phase)";

  TextTable table({"detector", "FP rate", "det app", "det shell",
                   "det rootkit"});
  CsvWriter csv("ablation_phase_aware.csv");
  csv.header({"detector", "fp_rate", "det_app", "det_shell", "det_rootkit"});
  for (const Row& r : {pooled, phased}) {
    table.add_row({r.name, fmt_double(r.fp, 3), fmt_double(r.det_app, 3),
                   fmt_double(r.det_shell, 3), fmt_double(r.det_rootkit, 3)});
    csv.row()
        .col(r.name)
        .col(r.fp)
        .col(r.det_app)
        .col(r.det_shell)
        .col(r.det_rootkit);
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("\nexpected shape: at matched FP budgets the phase-conditioned "
              "detector dominates on the stealthy rootkit (its anomaly is a "
              "pattern-at-the-wrong-phase, invisible to a pooled mixture) "
              "and at worst matches on the gross attacks.\n");
  std::printf("[bench] wrote ablation_phase_aware.csv\n");
  return 0;
}
