#include "pipeline/experiment.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <span>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "engine/sim_source.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/server.hpp"

namespace mhm::pipeline {

namespace {

/// Heartbeat policy: MHM_PROGRESS=1 forces it on, MHM_PROGRESS=0 off; when
/// unset it follows whether stderr is a terminal (so ctest logs stay clean
/// while interactive tool runs show progress).
bool progress_heartbeat_enabled() {
  if (const char* env = std::getenv("MHM_PROGRESS")) return env[0] == '1';
  return isatty(fileno(stderr)) != 0;
}

/// Serialized, monotonically rate-limited stderr heartbeat. Parallel
/// run_scenarios workers report through one writer: the line is rendered
/// into a local buffer and emitted with a single fwrite under the same lock
/// that owns the rate state, so concurrent workers can neither interleave
/// partial lines nor double-emit inside one rate window. The final line
/// (done == total) always goes out so the log records completion.
class ProgressWriter {
 public:
  void emit(std::size_t done, std::size_t total, const char* scenario) {
    const std::uint64_t now_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    std::lock_guard<std::mutex> lk(mu_);
    if (done < total && last_emit_ns_ != 0 &&
        now_ns - last_emit_ns_ < kMinGapNs) {
      return;
    }
    last_emit_ns_ = now_ns;
    char line[192];
    const int n = std::snprintf(line, sizeof line,
                                "[mhm] scenarios %zu/%zu (%s done)\n", done,
                                total, scenario);
    if (n > 0) {
      std::fwrite(line, 1, std::min(static_cast<std::size_t>(n), sizeof line),
                  stderr);
    }
  }

 private:
  static constexpr std::uint64_t kMinGapNs = 100'000'000;  // 10 lines/s cap.
  std::mutex mu_;
  std::uint64_t last_emit_ns_ = 0;
};

ProgressWriter& progress_writer() {
  static ProgressWriter w;
  return w;
}

struct PipelineMetrics {
  obs::Counter& scenarios_run = obs::Registry::instance().counter(
      "pipeline.scenarios_run", "scenario simulations completed (lifetime)");
  obs::Gauge& scenarios_completed = obs::Registry::instance().gauge(
      "pipeline.scenarios_completed",
      "scenarios finished in the current run_scenarios batch");
  obs::Histogram& scenario_min_density = obs::Registry::instance().histogram(
      "pipeline.scenario_min_log10_density",
      {-100.0, -50.0, -30.0, -20.0, -15.0, -10.0, -5.0, 0.0},
      "lowest log10 density scored in each completed scenario");
};

PipelineMetrics& pipeline_metrics() {
  static PipelineMetrics m;
  return m;
}

/// One trace per plan. Each profiling run is an independent seeded system;
/// all runs of all plans are simulated concurrently in one fan-out (grain
/// 1 = one run per chunk) and concatenated per plan in seed order, which
/// reproduces the serial traces exactly.
std::vector<HeatMapTrace> collect_normal_traces(
    const sim::SystemConfig& config, std::span<const ProfilingPlan> plans) {
  OBS_SCOPE(kPipelineCollect);
  struct Run {
    const ProfilingPlan* plan;
    std::uint64_t seed;
  };
  std::vector<Run> runs;
  for (const ProfilingPlan& plan : plans) {
    for (std::size_t r = 0; r < plan.runs; ++r) {
      runs.push_back({&plan, plan.seed_base + r});
    }
  }
  std::vector<HeatMapTrace> per_run(runs.size());
  parallel_for(runs.size(), 1, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      sim::SystemConfig cfg = config;
      cfg.seed = runs[r].seed;
      sim::System system(cfg);
      // Pull the run's maps through the engine-layer source (chunked
      // stepping is bit-identical to one long run_for) and drop the
      // cold-start transient as each map arrives.
      engine::SimIntervalSource source(system, runs[r].plan->run_duration);
      std::size_t seen = 0;
      while (auto item = source.next()) {
        if (seen++ < runs[r].plan->warmup_intervals) continue;
        per_run[r].push_back(std::move(item->map));
      }
    }
  });
  std::vector<HeatMapTrace> out(plans.size());
  std::size_t next = 0;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    std::size_t total = 0;
    for (std::size_t r = next; r < next + plans[p].runs; ++r) {
      total += per_run[r].size();
    }
    out[p].reserve(total);
    for (std::size_t r = next; r < next + plans[p].runs; ++r) {
      out[p].insert(out[p].end(), std::make_move_iterator(per_run[r].begin()),
                    std::make_move_iterator(per_run[r].end()));
    }
    next += plans[p].runs;
  }
  return out;
}

}  // namespace

HeatMapTrace collect_normal_trace(const sim::SystemConfig& config,
                                  const ProfilingPlan& plan) {
  return std::move(collect_normal_traces(config, {&plan, 1}).front());
}

std::size_t ScenarioRun::intervals_before_trigger() const {
  std::size_t n = 0;
  for (const auto& m : maps) n += (m.interval_index < trigger_interval);
  return n;
}

std::size_t ScenarioRun::intervals_after_trigger() const {
  return maps.size() - intervals_before_trigger();
}

std::vector<double> ScenarioRun::log10_densities() const {
  std::vector<double> scores;
  scores.reserve(verdicts.size());
  for (const auto& v : verdicts) scores.push_back(v.log10_density);
  return scores;
}

std::size_t ScenarioRun::false_positives_before_trigger(
    double threshold) const {
  std::size_t n = 0;
  for (const auto& v : verdicts) {
    if (v.interval_index < trigger_interval && v.log10_density < threshold) {
      ++n;
    }
  }
  return n;
}

std::size_t ScenarioRun::detections_after_trigger(double threshold) const {
  std::size_t n = 0;
  for (const auto& v : verdicts) {
    if (v.interval_index >= trigger_interval && v.log10_density < threshold) {
      ++n;
    }
  }
  return n;
}

std::optional<std::uint64_t> ScenarioRun::detection_latency(
    double threshold) const {
  for (const auto& v : verdicts) {
    if (v.interval_index >= trigger_interval && v.log10_density < threshold) {
      return v.interval_index - trigger_interval;
    }
  }
  return std::nullopt;
}

ScenarioRun run_scenario(const sim::SystemConfig& config,
                         attacks::AttackScenario* attack,
                         SimTime trigger_time, SimTime duration,
                         engine::Session* session, std::uint64_t seed) {
  sim::SystemConfig cfg = config;
  cfg.seed = seed;
  sim::System system(cfg);

  ScenarioRun result;
  result.scenario = attack != nullptr ? attack->name() : "normal";
  result.interval = cfg.monitor.interval;
  result.trigger_interval =
      attack != nullptr
          ? attacks::AttackScenario::trigger_interval(trigger_time,
                                                      cfg.monitor.interval)
          : std::numeric_limits<std::uint64_t>::max();

  if (attack != nullptr) attack->arm(system, trigger_time);

  // Secure-core loop, serving-shaped: pull each completed interval from the
  // engine-layer source and score it as the Memometer finishes it. The
  // simulation itself never sees the verdicts, so pulling is bit-identical
  // to the old push-style observer.
  engine::SimIntervalSource source(system, duration);
  while (auto item = source.next()) {
    result.traffic_volumes.push_back(
        static_cast<double>(item->map.total_accesses()));
    if (session != nullptr) {
      result.verdicts.push_back(session->analyze(item->map));
    }
    result.maps.push_back(std::move(item->map));
  }
  return result;
}

std::vector<ScenarioRun> run_scenarios(const sim::SystemConfig& config,
                                       const std::vector<ScenarioSpec>& specs,
                                       const engine::DetectionEngine* engine) {
  // Scenario fan-out: every spec simulates its own seeded system and scores
  // through its own session, so runs share no mutable state and the batch
  // result equals calling run_scenario() in a loop.
  std::vector<ScenarioRun> results(specs.size());
  // Long-running entry point: expose the process over MHM_OBS_PORT (no-op
  // when unset or already serving) so any batch is scrapeable mid-flight.
  obs::MonitorServer::ensure_env_server();
  PipelineMetrics& metrics = pipeline_metrics();
  metrics.scenarios_completed.set(0.0);
  const bool heartbeat = progress_heartbeat_enabled();
  std::atomic<std::size_t> completed{0};
  parallel_for(specs.size(), 1, [&](std::size_t s0, std::size_t s1) {
    for (std::size_t s = s0; s < s1; ++s) {
      const ScenarioSpec& spec = specs[s];
      std::unique_ptr<attacks::AttackScenario> attack;
      if (!spec.attack.empty() && spec.attack != "normal") {
        attack = attacks::make_scenario(spec.attack);
      }
      std::optional<engine::Session> session;
      if (engine != nullptr) session.emplace(engine->new_session());
      results[s] = run_scenario(config, attack.get(), spec.trigger_time,
                                spec.duration, session ? &*session : nullptr,
                                spec.seed);

      const std::size_t done = completed.fetch_add(1) + 1;
      metrics.scenarios_run.add();
      metrics.scenarios_completed.set(static_cast<double>(done));
      if (!results[s].verdicts.empty()) {
        double min_density = results[s].verdicts.front().log10_density;
        for (const auto& v : results[s].verdicts) {
          min_density = std::min(min_density, v.log10_density);
        }
        metrics.scenario_min_density.observe(min_density);
      }
      if (heartbeat) {
        progress_writer().emit(done, specs.size(),
                               results[s].scenario.c_str());
      }
    }
  });
  return results;
}

TrainedPipeline train_pipeline(const sim::SystemConfig& config,
                               const ProfilingPlan& plan,
                               const AnomalyDetector::Options& options) {
  OBS_SCOPE(kPipelineTrain);
  obs::MonitorServer::ensure_env_server();
  TrainedPipeline out;
  {
    // The training runs and separate normal runs (disjoint seeds) for
    // threshold calibration, simulated in one fan-out.
    OBS_SCOPE(kPipelineProfile);
    ProfilingPlan validation_plan = plan;
    validation_plan.runs = std::max<std::size_t>(1, plan.runs / 5);
    validation_plan.seed_base = plan.seed_base + plan.runs + 1000;
    const ProfilingPlan plans[] = {plan, validation_plan};
    auto traces = collect_normal_traces(config, plans);
    out.training = std::move(traces[0]);
    out.validation = std::move(traces[1]);
  }

  OBS_SCOPE(kPipelineFitDetector);
  out.detector = std::make_unique<AnomalyDetector>(
      AnomalyDetector::train(out.training, out.validation, options));
  out.theta_05 = out.detector->thresholds().theta_05();
  out.theta_1 = out.detector->thresholds().theta_1();
  return out;
}

sim::SystemConfig fast_test_config(std::uint64_t seed) {
  sim::SystemConfig cfg = sim::SystemConfig::paper_default(seed);
  cfg.monitor.granularity = 8 * 1024;  // L = 368 cells
  return cfg;
}

ProfilingPlan fast_test_plan() {
  ProfilingPlan plan;
  plan.runs = 3;
  plan.run_duration = 1 * kSecond;
  plan.seed_base = 100;
  return plan;
}

AnomalyDetector::Options fast_test_detector_options() {
  AnomalyDetector::Options opts;
  opts.pca.components = 8;
  opts.gmm.components = 5;
  opts.gmm.restarts = 3;
  opts.gmm.max_iterations = 100;
  return opts;
}

}  // namespace mhm::pipeline
