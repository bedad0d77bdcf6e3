// Reproduces Figure 7 (§5.3-1, Application Addition/Deletion): while the
// four MiBench-like tasks run, qsort (6 ms / 30 ms) is launched shortly
// after the 250th interval and later exits; the log probability density of
// the MHMs drops immediately and stays low while qsort runs, then recovers.
// The paper reports 0 and 2 abnormal intervals among the first 250 at
// theta_0.5 / theta_1 (false-positive rates 0 % and 0.8 %).

#include <cstdio>

#include "bench_support.hpp"

int main() {
  using namespace mhm;
  using namespace mhm::bench;

  print_header("Figure 7 — application addition (qsort launched and exited)");
  const pipeline::TrainedPipeline& pipe = trained_pipeline();

  // 500 intervals; qsort launches just after interval 250 and exits ~120
  // intervals later (the figure shows both the drop and the recovery).
  const SimTime interval = bench_config().monitor.interval;
  const SimTime trigger = 252 * interval;
  const SimTime qsort_lifetime = 120 * interval;
  attacks::AppAdditionAttack attack(sim::qsort_task_spec(), qsort_lifetime);

  pipeline::ScenarioRun run =
      scored_scenario(bench_config(), &attack, trigger,
                      /*duration=*/500 * interval, pipe, /*seed=*/777);

  print_detection_figure(run, pipe,
                         "log10 Pr(M) over 500 intervals — qsort launched at "
                         "the bar, exits ~120 intervals later");

  const std::size_t before = run.intervals_before_trigger();
  const std::size_t fp05 =
      run.false_positives_before_trigger(pipe.theta_05.log10_value);
  const std::size_t fp1 =
      run.false_positives_before_trigger(pipe.theta_1.log10_value);
  print_comparison({
      {"abnormal before launch (theta_0.5)", "0 of 250 (0 %)",
       std::to_string(fp05) + " of " + std::to_string(before)},
      {"abnormal before launch (theta_1)", "2 of 250 (0.8 %)",
       std::to_string(fp1) + " of " + std::to_string(before)},
      {"density right after launch", "drops immediately, stays low",
       run.detection_latency(pipe.theta_1.log10_value)
           ? "first flagged " +
                 std::to_string(*run.detection_latency(pipe.theta_1.log10_value)) +
                 " interval(s) after launch"
           : "not detected"},
  });

  // Recovery after qsort exits (the figure's right edge).
  const std::uint64_t exit_interval = run.trigger_interval + 122;
  std::size_t tail_alarms = 0;
  std::size_t tail_total = 0;
  const std::vector<double> dens = run.log10_densities();
  for (std::size_t i = 0; i < run.maps.size(); ++i) {
    if (run.maps[i].interval_index >= exit_interval + 5) {
      ++tail_total;
      tail_alarms += (dens[i] < pipe.theta_1.log10_value);
    }
  }
  if (tail_total > 0) {
    std::printf("\nafter qsort exit: %zu of %zu intervals flagged (%.1f%%) — "
                "normality restored\n",
                tail_alarms, tail_total,
                100.0 * static_cast<double>(tail_alarms) /
                    static_cast<double>(tail_total));
  }

  write_series_csv("fig7_app_addition", run);
  return 0;
}
