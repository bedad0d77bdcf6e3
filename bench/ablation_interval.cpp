// Ablation A6 — monitoring interval. The paper samples one MHM every 10 ms
// (chosen "arbitrarily", §5.2). Shorter intervals react faster but see
// fewer accesses per map (noisier composition, more phases); longer
// intervals smooth the composition but delay detection and blur short
// attacks. This bench sweeps the interval and reports detection AUC and
// detection latency in *milliseconds* (latency in intervals times interval
// length), plus the per-interval traffic scale.

#include <cstdio>

#include "bench_support.hpp"
#include "common/stats.hpp"

int main() {
  using namespace mhm;
  using namespace mhm::bench;

  print_header("Ablation A6 — monitoring interval sweep");

  CsvWriter csv("ablation_interval.csv");
  csv.header({"interval_ms", "mean_volume", "auc_app", "auc_rootkit",
              "latency_ms_app"});
  TextTable table({"interval", "mean vol", "AUC app", "AUC rootkit",
                   "detect latency (app)"});

  for (std::uint64_t interval_ms : {5ull, 10ull, 20ull, 50ull}) {
    sim::SystemConfig cfg = bench_config(1);
    cfg.monitor.interval = interval_ms * kMillisecond;

    pipeline::ProfilingPlan plan;
    plan.runs = fast_mode() ? 2 : 5;
    plan.run_duration = fast_mode() ? 1 * kSecond : 2 * kSecond;

    AnomalyDetector::Options opts;
    opts.pca.components = 9;
    opts.gmm.components = 5;
    opts.gmm.restarts = 3;
    const auto pipe = pipeline::train_pipeline(cfg, plan, opts);

    RunningStats volume;
    for (const auto& m : pipe.training) {
      volume.add(static_cast<double>(m.total_accesses()));
    }

    const SimTime duration = 2 * kSecond;
    const SimTime trigger = 500 * kMillisecond;
    pipeline::ScenarioRun normal_run = scored_scenario(
        cfg, nullptr, 0, duration, pipe, 9001);

    auto run_attack = [&](const std::string& name) {
      auto attack = attacks::make_scenario(name);
      return scored_scenario(cfg, attack.get(), trigger, duration, pipe, 9002);
    };
    const std::vector<double> normal_dens = normal_run.log10_densities();
    auto auc_of = [&](const pipeline::ScenarioRun& run) {
      std::vector<double> attacked;
      const std::vector<double> run_dens = run.log10_densities();
      for (std::size_t i = 0; i < run.maps.size(); ++i) {
        if (run.maps[i].interval_index >= run.trigger_interval) {
          attacked.push_back(run_dens[i]);
        }
      }
      return roc_auc(normal_dens, attacked);
    };

    const pipeline::ScenarioRun app = run_attack("app_addition");
    const pipeline::ScenarioRun rk = run_attack("rootkit");
    const double auc_app = auc_of(app);
    const double auc_rk = auc_of(rk);
    const auto latency = app.detection_latency(pipe.theta_1.log10_value);
    const double latency_ms =
        latency ? static_cast<double>(*latency) * static_cast<double>(interval_ms)
                : -1.0;

    table.add_row(
        {std::to_string(interval_ms) + " ms", fmt_double(volume.mean(), 0),
         fmt_double(auc_app, 3), fmt_double(auc_rk, 3),
         latency ? fmt_double(latency_ms, 0) + " ms" : "missed"});
    csv.row()
        .col(interval_ms)
        .col(volume.mean())
        .col(auc_app)
        .col(auc_rk)
        .col(latency_ms);
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("\nexpected shape: per-interval volume scales linearly with "
              "the interval; short intervals give the lowest detection "
              "latency in wall-clock terms as long as AUC holds up.\n");
  std::printf("[bench] wrote ablation_interval.csv\n");
  return 0;
}
