// securecore_monitor — demonstrates the SecureCore deployment model (§3):
// the trusted core configures the Memometer, pulls each finished MHM from
// the on-chip double buffer, analyzes it within the monitoring interval
// and raises alarms through a handler (here: a Simplex-style fallback that
// logs and could switch the plant to a safety controller). Also checks the
// real-time constraint the paper's §5.4 numbers exist to establish:
// analysis time must fit inside one interval so the double buffer never
// overruns.

#include <cstdio>

#include "attacks/attacks.hpp"
#include "pipeline/experiment.hpp"
#include "pipeline/secure_core.hpp"

int main() {
  using namespace mhm;

  sim::SystemConfig config = sim::SystemConfig::paper_default(/*seed=*/1);
  config.monitor.granularity = 8 * 1024;

  pipeline::ProfilingPlan plan;
  plan.runs = 4;
  plan.run_duration = 2 * kSecond;

  AnomalyDetector::Options options;
  options.pca.components = 9;
  options.gmm.components = 5;
  options.gmm.restarts = 5;

  std::printf("Profiling phase (trusted environment, pre-deployment)...\n");
  pipeline::TrainedPipeline pipe =
      pipeline::train_pipeline(config, plan, options);

  std::printf("Deployment: secure core armed, monitored core running the "
              "real-time task set. A shellcode will fire at t = 2 s.\n\n");

  sim::SystemConfig deployed = config;
  deployed.seed = 31415;
  sim::System system(deployed);
  pipeline::SecureCoreMonitor monitor(system, pipe.make_engine());

  // Alarm handler: first alarm triggers the (simulated) recovery action.
  bool recovery_triggered = false;
  monitor.set_alarm_handler([&](const pipeline::SecureCoreMonitor::Alarm& a) {
    if (!recovery_triggered) {
      std::printf(">>> ALARM at interval %llu (log10 Pr = %.2f) — "
                  "switching to safety controller <<<\n",
                  static_cast<unsigned long long>(a.interval_index),
                  a.log10_density);
      recovery_triggered = true;
    }
  });

  attacks::ShellcodeAttack attack("bitcount");
  attack.arm(system, 2 * kSecond);
  system.run_for(4 * kSecond);

  std::printf("\nRun complete: %zu intervals analyzed, %zu alarms\n",
              monitor.verdicts().size(), monitor.alarms().size());
  std::printf("mean analysis time: %.1f us per MHM (interval: %.1f ms)\n",
              monitor.mean_analysis_time_ns() / 1000.0,
              static_cast<double>(deployed.monitor.interval) / kMillisecond);
  std::printf("double-buffer overruns (analysis longer than interval): %zu\n",
              monitor.deadline_overruns());

  // Count pre/post attack alarms (trigger at interval 200).
  std::size_t pre = 0;
  std::size_t post = 0;
  for (const auto& a : monitor.alarms()) {
    (a.interval_index < 200 ? pre : post) += 1;
  }
  std::printf("alarms before the attack: %zu (false positives), after: %zu\n",
              pre, post);
  std::printf("first alarm raised: %s\n",
              recovery_triggered ? "yes — recovery engaged" : "no");
  return 0;
}
