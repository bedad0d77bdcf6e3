// Quickstart: the complete Memory Heat Map workflow in ~60 lines.
//
//  1. Build the simulated monitored system (synthetic kernel + the paper's
//     four periodic MiBench-like tasks + Memometer snooping kernel .text).
//  2. Profile normal behaviour and train the detector
//     (eigenmemory PCA -> GMM, thresholds calibrated on held-out maps).
//  3. Replay a run with a mid-run attack (a rogue application launch) and
//     print the per-interval log densities the secure core would see.

#include <cstdio>

#include "attacks/attacks.hpp"
#include "common/ascii_plot.hpp"
#include "obs/metrics.hpp"
#include "pipeline/experiment.hpp"

int main() {
  using namespace mhm;

  // --- 1. system configuration (coarsened for a fast demo) ---
  sim::SystemConfig config = sim::SystemConfig::paper_default(/*seed=*/1);
  config.monitor.granularity = 8 * 1024;  // 368 cells instead of 1,472

  // --- 2. profile + train ---
  pipeline::ProfilingPlan plan;
  plan.runs = 4;
  plan.run_duration = 2 * kSecond;

  AnomalyDetector::Options options;
  options.pca.components = 9;   // eigenmemories (paper: 9)
  options.gmm.components = 5;   // GMM patterns J (paper: 5)
  options.gmm.restarts = 5;

  std::printf("Profiling %zu normal runs of %.1f s each...\n", plan.runs,
              static_cast<double>(plan.run_duration) / kSecond);
  pipeline::TrainedPipeline trained =
      pipeline::train_pipeline(config, plan, options);
  std::printf("Trained on %zu MHMs (%zu cells each); "
              "variance explained by %zu eigenmemories: %.4f%%\n",
              trained.training.size(), trained.training.front().cell_count(),
              trained.det().eigenmemory().components(),
              100.0 * trained.det().eigenmemory().variance_explained());
  std::printf("Thresholds: theta_0.5 = %.2f, theta_1 = %.2f (log10)\n",
              trained.theta_05.log10_value, trained.theta_1.log10_value);

  // --- 3. attacked run: launch qsort at t = 2.5 s ---
  attacks::AppAdditionAttack attack;
  const SimTime trigger = 2500 * kMillisecond;
  engine::Session session = trained.make_engine().new_session();
  pipeline::ScenarioRun run = pipeline::run_scenario(
      config, &attack, trigger, /*duration=*/5 * kSecond, &session,
      /*seed=*/777);

  std::printf("\nScenario '%s': %zu intervals, attack at interval %llu\n",
              run.scenario.c_str(), run.maps.size(),
              static_cast<unsigned long long>(run.trigger_interval));
  std::printf("False positives before trigger (theta_1): %zu / %zu\n",
              run.false_positives_before_trigger(trained.theta_1.log10_value),
              run.intervals_before_trigger());
  const auto latency = run.detection_latency(trained.theta_1.log10_value);
  if (latency) {
    std::printf("Detected %llu interval(s) after the launch\n",
                static_cast<unsigned long long>(*latency));
  } else {
    std::printf("Attack NOT detected\n");
  }

  LinePlotOptions plot;
  plot.title = "log10 Pr(M) per interval (app addition at the vertical bar)";
  plot.hlines = {trained.theta_05.log10_value, trained.theta_1.log10_value};
  plot.vlines = {static_cast<double>(run.trigger_interval)};
  std::fputs(render_line_plot(run.log10_densities(), plot).c_str(), stdout);

  const obs::Histogram& hist = StreamObserver::analysis_time_histogram();
  std::printf("\nMean analysis time per MHM: %.1f us\n",
              hist.count() > 0
                  ? hist.sum() / static_cast<double>(hist.count()) / 1000.0
                  : 0.0);
  return 0;
}
