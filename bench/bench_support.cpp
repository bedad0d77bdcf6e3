#include "bench_support.hpp"

#include <cstdlib>
#include <mutex>

#include "common/stats.hpp"
#include "obs/metrics.hpp"

namespace mhm::bench {

void reset_analysis_time() {
  StreamObserver::analysis_time_histogram().reset();
}

double analysis_mean_us() {
  const obs::Histogram& h = StreamObserver::analysis_time_histogram();
  const std::uint64_t n = h.count();
  return n > 0 ? h.sum() / static_cast<double>(n) / 1000.0 : 0.0;
}

bool fast_mode() {
  const char* env = std::getenv("MHM_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

sim::SystemConfig bench_config(std::uint64_t seed) {
  sim::SystemConfig cfg = sim::SystemConfig::paper_default(seed);
  if (fast_mode()) {
    cfg.monitor.granularity = 8 * 1024;  // L = 368 instead of 1,472
  }
  return cfg;
}

pipeline::ProfilingPlan bench_plan() {
  pipeline::ProfilingPlan plan;
  if (fast_mode()) {
    plan.runs = 3;
    plan.run_duration = 1 * kSecond;
  } else {
    plan.runs = 10;                 // §5.2: 10 sets
    plan.run_duration = 3 * kSecond;  // each spanning 3 seconds
  }
  plan.seed_base = 100;
  return plan;
}

AnomalyDetector::Options bench_detector_options() {
  AnomalyDetector::Options opts;
  opts.pca.components = 9;  // §5.2: 9 eigenmemories
  opts.gmm.components = 5;  // §5.2: J = 5
  opts.gmm.restarts = fast_mode() ? 3 : 10;  // §5.2: 10 EM restarts
  opts.primary_p = 0.01;    // θ_1
  return opts;
}

const pipeline::TrainedPipeline& trained_pipeline() {
  static std::once_flag once;
  static std::unique_ptr<pipeline::TrainedPipeline> pipe;
  std::call_once(once, [] {
    std::printf("[bench] training pipeline (%s scale)...\n",
                fast_mode() ? "fast" : "paper");
    std::fflush(stdout);
    pipe = std::make_unique<pipeline::TrainedPipeline>(pipeline::train_pipeline(
        bench_config(), bench_plan(), bench_detector_options()));
    std::printf(
        "[bench] trained on %zu MHMs (%zu cells), validation %zu MHMs; "
        "variance explained %.4f%%\n",
        pipe->training.size(), pipe->training.front().cell_count(),
        pipe->validation.size(),
        100.0 * pipe->detector->eigenmemory().variance_explained());
  });
  return *pipe;
}

pipeline::ScenarioRun scored_scenario(const sim::SystemConfig& config,
                                      attacks::AttackScenario* attack,
                                      SimTime trigger_time, SimTime duration,
                                      const pipeline::TrainedPipeline& pipe,
                                      std::uint64_t seed) {
  engine::Session session = pipe.make_engine().new_session();
  return pipeline::run_scenario(config, attack, trigger_time, duration,
                                &session, seed);
}

double spe_threshold(const pipeline::TrainedPipeline& pipe, double p) {
  engine::Session session = pipe.make_engine().new_session();
  std::vector<double> spe;
  spe.reserve(pipe.validation.size());
  for (const auto& m : pipe.validation) spe.push_back(session.analyze(m).spe);
  return quantile(spe, 1.0 - p);
}

void print_header(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

void print_comparison(const std::vector<PaperComparison>& rows) {
  TextTable table({"quantity", "paper", "this reproduction"});
  for (const auto& row : rows) {
    table.add_row({row.quantity, row.paper, row.measured});
  }
  std::fputs(table.str().c_str(), stdout);
}

void print_detection_figure(const pipeline::ScenarioRun& run,
                            const pipeline::TrainedPipeline& pipe,
                            const std::string& title) {
  LinePlotOptions plot;
  plot.title = title;
  plot.width = 100;
  plot.height = 22;
  plot.hlines = {pipe.theta_05.log10_value, pipe.theta_1.log10_value};
  if (run.trigger_interval < run.maps.size()) {
    plot.vlines = {static_cast<double>(run.trigger_interval)};
  }
  plot.x_label = "interval index (10 ms each); dashes: theta_0.5 / theta_1; "
                 "bar: attack";
  std::fputs(render_line_plot(run.log10_densities(), plot).c_str(), stdout);

  const double t05 = pipe.theta_05.log10_value;
  const double t1 = pipe.theta_1.log10_value;
  const std::size_t before = run.intervals_before_trigger();
  std::printf(
      "before trigger: %zu intervals, false positives %zu (theta_0.5) / %zu "
      "(theta_1) -> FP rates %.2f%% / %.2f%%\n",
      before, run.false_positives_before_trigger(t05),
      run.false_positives_before_trigger(t1),
      before ? 100.0 * static_cast<double>(run.false_positives_before_trigger(t05)) /
                   static_cast<double>(before)
             : 0.0,
      before ? 100.0 * static_cast<double>(run.false_positives_before_trigger(t1)) /
                   static_cast<double>(before)
             : 0.0);
  const std::size_t after = run.intervals_after_trigger();
  if (after > 0) {
    const auto latency = run.detection_latency(t1);
    std::printf(
        "after trigger: %zu intervals, %zu flagged at theta_1 (%.1f%%); "
        "first detection %s\n",
        after, run.detections_after_trigger(t1),
        100.0 * static_cast<double>(run.detections_after_trigger(t1)) /
            static_cast<double>(after),
        latency ? (std::to_string(*latency) + " interval(s) after the trigger")
                      .c_str()
                : "never");
  }
}

void write_series_csv(const std::string& name,
                      const pipeline::ScenarioRun& run) {
  const std::string path = name + ".csv";
  CsvWriter csv(path);
  csv.header({"interval", "log10_density", "traffic_volume", "anomalous"});
  const std::vector<double> dens = run.log10_densities();
  for (std::size_t i = 0; i < run.maps.size(); ++i) {
    csv.row()
        .col(run.maps[i].interval_index)
        .col(dens.empty() ? 0.0 : dens[i])
        .col(run.traffic_volumes[i])
        .col(run.verdicts.empty() ? 0 : static_cast<int>(run.verdicts[i].anomalous));
  }
  std::printf("[bench] wrote %s\n", path.c_str());
}

}  // namespace mhm::bench
