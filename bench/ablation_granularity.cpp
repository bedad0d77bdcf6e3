// Ablation A1 — cell granularity δ. The paper picks δ = 2 KB "arbitrarily"
// (§5.2) and reports only one coarser point (8 KB) in the timing section.
// This bench sweeps δ and reports, for each setting: cell count L,
// detection quality (ROC AUC of normal-vs-attacked interval scores across
// all three scenarios) and mean analysis time, exposing the
// resolution-vs-cost trade-off behind the paper's choice.

#include <cstdio>
#include <memory>

#include "bench_support.hpp"
#include "common/stats.hpp"

int main() {
  using namespace mhm;
  using namespace mhm::bench;

  print_header("Ablation A1 — MHM granularity sweep");

  const SimTime interval = sim::SystemConfig::paper_default().monitor.interval;
  const SimTime trigger = 50 * interval;
  const SimTime duration = 200 * interval;

  CsvWriter csv("ablation_granularity.csv");
  csv.header({"granularity", "cells", "auc_app", "auc_shellcode",
              "auc_rootkit", "analysis_us"});
  TextTable table({"delta", "L", "AUC app", "AUC shell", "AUC rootkit",
                   "analysis us"});

  for (std::uint64_t granularity :
       {std::uint64_t{2048}, std::uint64_t{4096}, std::uint64_t{8192},
        std::uint64_t{16384}, std::uint64_t{32768}}) {
    sim::SystemConfig cfg = sim::SystemConfig::paper_default(1);
    cfg.monitor.granularity = granularity;

    pipeline::ProfilingPlan plan;
    plan.runs = fast_mode() ? 2 : 5;
    plan.run_duration = fast_mode() ? 1 * kSecond : 2 * kSecond;

    AnomalyDetector::Options opts;
    opts.pca.components = 9;
    opts.gmm.components = 5;
    opts.gmm.restarts = 3;
    const auto pipe = pipeline::train_pipeline(cfg, plan, opts);
    reset_analysis_time();  // Scope the histogram to this granularity.

    // Normal scores from a held-out run.
    pipeline::ScenarioRun normal_run = scored_scenario(
        cfg, nullptr, 0, duration, pipe, 5001);

    const std::vector<double> normal_dens = normal_run.log10_densities();
    auto attacked_auc = [&](const std::string& name) {
      auto attack = attacks::make_scenario(name);
      pipeline::ScenarioRun run = scored_scenario(
          cfg, attack.get(), trigger, duration, pipe, 5002);
      std::vector<double> attacked_scores;
      const std::vector<double> run_dens = run.log10_densities();
      for (std::size_t i = 0; i < run.maps.size(); ++i) {
        if (run.maps[i].interval_index >= run.trigger_interval) {
          attacked_scores.push_back(run_dens[i]);
        }
      }
      return roc_auc(normal_dens, attacked_scores);
    };

    const double auc_app = attacked_auc("app_addition");
    const double auc_shell = attacked_auc("shellcode");
    const double auc_rootkit = attacked_auc("rootkit");
    const double us = analysis_mean_us();

    table.add_row({std::to_string(granularity),
                   std::to_string(cfg.monitor.cell_count()),
                   fmt_double(auc_app, 3), fmt_double(auc_shell, 3),
                   fmt_double(auc_rootkit, 3), fmt_double(us, 2)});
    csv.row()
        .col(granularity)
        .col(static_cast<std::uint64_t>(cfg.monitor.cell_count()))
        .col(auc_app)
        .col(auc_shell)
        .col(auc_rootkit)
        .col(us);
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("\nexpected shape: AUC stays high for app/shellcode at every "
              "granularity (gross behavioural change), degrades for the "
              "stealthy rootkit as cells get coarser; analysis time grows "
              "with L.\n");
  std::printf("[bench] wrote ablation_granularity.csv\n");
  return 0;
}
