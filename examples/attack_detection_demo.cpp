// attack_detection_demo — runs all three of the paper's attack scenarios
// (§5.3) against one trained detector and prints a side-by-side summary:
// application addition, shellcode execution and the kernel rootkit, each
// with per-threshold detection statistics, mirroring the paper's
// evaluation narrative end to end.
//
// Usage: attack_detection_demo [scenario]
//   scenario: app_addition | shellcode | rootkit (default: all three)

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "attacks/attacks.hpp"
#include "common/ascii_plot.hpp"
#include "pipeline/experiment.hpp"

namespace {

using namespace mhm;

struct ScenarioSummary {
  std::string name;
  std::size_t fp_before = 0;
  std::size_t before = 0;
  std::size_t flagged_after = 0;
  std::size_t after = 0;
  std::string latency;
};

ScenarioSummary run_one(const std::string& name,
                        const sim::SystemConfig& config,
                        const pipeline::TrainedPipeline& pipe,
                        bool print_plot) {
  auto attack = attacks::make_scenario(name);
  const SimTime interval = config.monitor.interval;
  const SimTime trigger = 150 * interval;
  engine::Session session = pipe.make_engine().new_session();
  pipeline::ScenarioRun run =
      pipeline::run_scenario(config, attack.get(), trigger,
                             /*duration=*/400 * interval, &session,
                             /*seed=*/2718);

  if (print_plot) {
    LinePlotOptions plot;
    plot.title = "scenario '" + name + "': log10 Pr(M) per interval";
    plot.hlines = {pipe.theta_05.log10_value, pipe.theta_1.log10_value};
    plot.vlines = {static_cast<double>(run.trigger_interval)};
    plot.height = 16;
    std::fputs(render_line_plot(run.log10_densities(), plot).c_str(), stdout);
  }

  ScenarioSummary s;
  s.name = name;
  const double theta = pipe.theta_1.log10_value;
  s.before = run.intervals_before_trigger();
  s.fp_before = run.false_positives_before_trigger(theta);
  s.after = run.intervals_after_trigger();
  s.flagged_after = run.detections_after_trigger(theta);
  const auto latency = run.detection_latency(theta);
  s.latency = latency ? "+" + std::to_string(*latency) + " intervals"
                      : "not detected";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mhm;

  std::vector<std::string> scenarios = {"app_addition", "shellcode",
                                        "rootkit"};
  if (argc > 1) scenarios = {argv[1]};

  sim::SystemConfig config = sim::SystemConfig::paper_default(/*seed=*/1);
  config.monitor.granularity = 8 * 1024;  // demo speed

  pipeline::ProfilingPlan plan;
  plan.runs = 4;
  plan.run_duration = 2 * kSecond;

  AnomalyDetector::Options options;
  options.pca.components = 9;
  options.gmm.components = 5;
  options.gmm.restarts = 5;

  std::printf("Training detector on %zu normal runs...\n", plan.runs);
  pipeline::TrainedPipeline pipe =
      pipeline::train_pipeline(config, plan, options);
  std::printf("theta_0.5 = %.2f, theta_1 = %.2f (log10 density)\n\n",
              pipe.theta_05.log10_value, pipe.theta_1.log10_value);

  std::vector<ScenarioSummary> summaries;
  for (const auto& name : scenarios) {
    summaries.push_back(run_one(name, config, pipe, /*print_plot=*/true));
    std::printf("\n");
  }

  TextTable table({"scenario", "FP before trigger", "flagged after trigger",
                   "first detection"});
  for (const auto& s : summaries) {
    table.add_row(
        {s.name,
         std::to_string(s.fp_before) + " / " + std::to_string(s.before),
         std::to_string(s.flagged_after) + " / " + std::to_string(s.after),
         s.latency});
  }
  std::fputs(table.str().c_str(), stdout);
  return 0;
}
