#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "sim/system.hpp"

namespace mhm::pipeline {

/// Multi-instance (AMP) monitoring — the §5.5 scaling scenario.
///
/// "For AMP architectures on which multiple OSes run, the Memometer should
/// be replicated for each OS instance." Each monitored instance keeps its
/// own Memometer, its own trained model (different OS images have different
/// normal behaviour) and its own scoring session, while a single secure core
/// performs all the analyses. The real-time budget becomes Σ analysis times
/// ≤ interval; this class accounts for it the way SecureCoreMonitor does
/// for one instance.
class AmpMonitor {
 public:
  struct InstanceAlarm {
    std::size_t instance = 0;            ///< Which monitored OS.
    std::uint64_t interval_index = 0;
    double log10_density = 0.0;
  };

  AmpMonitor() = default;
  AmpMonitor(const AmpMonitor&) = delete;
  AmpMonitor& operator=(const AmpMonitor&) = delete;

  /// Attach one monitored instance, scored through a new session from
  /// `engine`. `system` must outlive the monitor and the run. Returns the
  /// instance index.
  std::size_t attach(sim::System& system, const engine::DetectionEngine& engine,
                     std::string name = {});

  /// Run every attached instance for `duration` (they advance in lockstep
  /// interval-by-interval only in the sense that each produces one MHM per
  /// interval; their simulations are independent).
  void run_all(SimTime duration);

  std::size_t instance_count() const { return instances_.size(); }
  const std::vector<InstanceAlarm>& alarms() const { return alarms_; }
  const std::vector<Verdict>& verdicts(std::size_t instance) const;
  const std::string& name(std::size_t instance) const;
  /// The instance's own session (journal, health, history).
  const engine::Session& session(std::size_t instance) const;

  /// Total secure-core analysis time spent per monitoring interval,
  /// averaged over intervals: the §5.5 budget Σ_i t_i. (Assumes equal
  /// interval lengths across instances.)
  double mean_total_analysis_ns_per_interval() const;

  /// Number of intervals whose *summed* analysis time exceeded the
  /// monitoring interval — the AMP double-buffer overrun condition.
  std::size_t budget_overruns() const;

 private:
  struct Instance {
    sim::System* system = nullptr;
    engine::Session session;
    std::string name;
    std::vector<Verdict> verdicts;
  };

  /// Summed analysis time of every instance, keyed by interval index.
  std::map<std::uint64_t, double> analysis_ns_per_interval() const;

  std::vector<Instance> instances_;
  std::vector<InstanceAlarm> alarms_;
  SimTime interval_ = 0;
};

}  // namespace mhm::pipeline
