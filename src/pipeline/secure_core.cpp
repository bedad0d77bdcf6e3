#include "pipeline/secure_core.hpp"

#include "common/error.hpp"

namespace mhm::pipeline {

SecureCoreMonitor::SecureCoreMonitor(sim::System& system,
                                     const engine::DetectionEngine& engine)
    : session_(engine.new_session()),
      interval_length_(system.config().monitor.interval) {
  system.set_interval_observer([this](const HeatMap& map) {
    const Verdict v = session_.analyze(map);
    if (static_cast<SimTime>(v.analysis_time.count()) > interval_length_) {
      ++overruns_;
    }
    if (v.anomalous) {
      Alarm alarm{.interval_index = v.interval_index,
                  .log10_density = v.log10_density};
      alarms_.push_back(alarm);
      if (alarm_handler_) alarm_handler_(alarm);
    }
    verdicts_.push_back(v);
  });
}

void SecureCoreMonitor::set_alarm_handler(
    std::function<void(const Alarm&)> handler) {
  alarm_handler_ = std::move(handler);
}

double SecureCoreMonitor::mean_analysis_time_ns() const {
  MHM_ASSERT(!verdicts_.empty(),
             "SecureCoreMonitor: no intervals analyzed yet");
  double total = 0.0;
  for (const auto& v : verdicts_) {
    total += static_cast<double>(v.analysis_time.count());
  }
  return total / static_cast<double>(verdicts_.size());
}

}  // namespace mhm::pipeline
