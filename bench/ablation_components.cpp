// Ablation A2 — number of eigenmemories L'. The paper keeps 9 (covering
// > 99.99 % of training variance) and reports 216 us analysis time at
// L' = 5. This bench sweeps L' and reports variance explained,
// reconstruction error, detection AUC per scenario and analysis time,
// locating the knee the paper's choice sits on.

#include <cstdio>

#include "bench_support.hpp"
#include "common/stats.hpp"

int main() {
  using namespace mhm;
  using namespace mhm::bench;

  print_header("Ablation A2 — eigenmemory count (L') sweep");

  sim::SystemConfig cfg = bench_config(1);
  pipeline::ProfilingPlan plan;
  plan.runs = fast_mode() ? 2 : 5;
  plan.run_duration = fast_mode() ? 1 * kSecond : 2 * kSecond;

  const SimTime interval = cfg.monitor.interval;
  const SimTime trigger = 50 * interval;
  const SimTime duration = 200 * interval;

  CsvWriter csv("ablation_components.csv");
  csv.header({"components", "variance_explained", "reconstruction_error",
              "auc_app", "auc_rootkit", "analysis_us"});
  TextTable table({"L'", "var expl %", "recon err", "AUC app", "AUC rootkit",
                   "analysis us"});

  for (std::size_t components : {1u, 2u, 3u, 5u, 9u, 16u, 32u}) {
    AnomalyDetector::Options opts;
    opts.pca.components = components;
    opts.gmm.components = 5;
    opts.gmm.restarts = 3;
    const auto pipe = pipeline::train_pipeline(cfg, plan, opts);
    reset_analysis_time();  // Scope the histogram to this L' configuration.

    // Mean reconstruction error over the validation maps.
    RunningStats recon;
    for (const auto& m : pipe.validation) {
      recon.add(pipe.det().eigenmemory().reconstruction_error(m.as_vector()));
    }

    pipeline::ScenarioRun normal_run = scored_scenario(
        cfg, nullptr, 0, duration, pipe, 6001);
    const std::vector<double> normal_dens = normal_run.log10_densities();
    auto attacked_auc = [&](const std::string& name) {
      auto attack = attacks::make_scenario(name);
      pipeline::ScenarioRun run = scored_scenario(
          cfg, attack.get(), trigger, duration, pipe, 6002);
      std::vector<double> attacked;
      const std::vector<double> run_dens = run.log10_densities();
      for (std::size_t i = 0; i < run.maps.size(); ++i) {
        if (run.maps[i].interval_index >= run.trigger_interval) {
          attacked.push_back(run_dens[i]);
        }
      }
      return roc_auc(normal_dens, attacked);
    };
    const double auc_app = attacked_auc("app_addition");
    const double auc_rootkit = attacked_auc("rootkit");
    const double us = analysis_mean_us();

    table.add_row({std::to_string(components),
                   fmt_double(100.0 * pipe.det().eigenmemory().variance_explained(), 3),
                   fmt_double(recon.mean(), 4), fmt_double(auc_app, 3),
                   fmt_double(auc_rootkit, 3), fmt_double(us, 2)});
    csv.row()
        .col(static_cast<std::uint64_t>(components))
        .col(pipe.det().eigenmemory().variance_explained())
        .col(recon.mean())
        .col(auc_app)
        .col(auc_rootkit)
        .col(us);
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("\nexpected shape: variance explained and AUC saturate around "
              "the paper's L' = 9; analysis time keeps growing with L'.\n");
  std::printf("[bench] wrote ablation_components.csv\n");
  return 0;
}
