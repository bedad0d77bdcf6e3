// Ablation A4 — snoop point (§5.5 "Limitation"). The paper snoops between
// core and L1 to see every fetch, and conjectures that moving the
// Memometer below a shared cache would simplify the hardware at the cost
// of losing cache hits, "but the accuracy drop would not be significant"
// thanks to the predictability of real-time workloads. This bench tests
// that conjecture: train and detect at each snoop point, compare traffic
// seen, hit rates and detection AUC.

#include <cstdio>

#include "bench_support.hpp"
#include "common/stats.hpp"

int main() {
  using namespace mhm;
  using namespace mhm::bench;

  print_header("Ablation A4 — snoop point: pre-L1 vs post-L1 vs post-L2");

  const SimTime interval = sim::SystemConfig::paper_default().monitor.interval;
  const SimTime trigger = 50 * interval;
  const SimTime duration = 200 * interval;

  CsvWriter csv("ablation_snoop_point.csv");
  csv.header({"snoop_point", "mean_volume", "auc_app", "auc_shellcode",
              "auc_rootkit"});
  TextTable table({"snoop point", "mean vol/interval", "AUC app", "AUC shell",
                   "AUC rootkit"});

  const struct {
    sim::SnoopPoint point;
    const char* name;
  } kPoints[] = {
      {sim::SnoopPoint::PreL1, "pre-L1 (paper)"},
      {sim::SnoopPoint::PostL1, "post-L1"},
      {sim::SnoopPoint::PostL2, "post-L2"},
  };

  for (const auto& sp : kPoints) {
    sim::SystemConfig cfg = bench_config(1);
    cfg.snoop_point = sp.point;

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

    pipeline::ScenarioRun normal_run = scored_scenario(
        cfg, nullptr, 0, duration, pipe, 7001);
    const std::vector<double> normal_dens = normal_run.log10_densities();
    auto attacked_auc = [&](const std::string& name) {
      auto attack = attacks::make_scenario(name);
      pipeline::ScenarioRun run = scored_scenario(
          cfg, attack.get(), trigger, duration, pipe, 7002);
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
    const double auc_shell = attacked_auc("shellcode");
    const double auc_rootkit = attacked_auc("rootkit");

    table.add_row({sp.name, fmt_double(volume.mean(), 0),
                   fmt_double(auc_app, 3), fmt_double(auc_shell, 3),
                   fmt_double(auc_rootkit, 3)});
    csv.row()
        .col(sp.name)
        .col(volume.mean())
        .col(auc_app)
        .col(auc_shell)
        .col(auc_rootkit);
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("\n§5.5 conjecture under test: below the cache the Memometer "
              "sees only misses (much lower volume), yet detection quality "
              "should not collapse because the workload is periodic.\n");
  std::printf("[bench] wrote ablation_snoop_point.csv\n");
  return 0;
}
