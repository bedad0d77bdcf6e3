#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hw/memory_bus.hpp"
#include "sim/kernel_services.hpp"
#include "sim/task.hpp"

namespace mhm::sim {

/// One planned slice of a job's execution.
struct JobSegment {
  enum class Kind { UserCompute, Syscall };
  Kind kind = Kind::UserCompute;
  SimTime remaining = 0;     ///< CPU time left in this segment.
  ServiceId service = 0;     ///< For Syscall segments.
  bool service_emitted = false;  ///< Fetches emitted when the segment starts.
};

/// Scheduler-facing runtime state of one task.
struct TaskRuntime {
  TaskSpec spec;
  /// Catalog id of each `spec.syscalls` entry, resolved once by add_task.
  std::vector<ServiceId> syscall_services;
  std::size_t priority = 0;       ///< Lower value = higher priority (RM).
  Rng rng;                        ///< Per-task jitter stream.
  bool active = true;             ///< False once killed/removed.
  SimTime next_release = 0;
  std::uint64_t jobs_released = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t deadline_misses = 0;
  SimTime job_release_time = 0;   ///< Release instant of the pending job.
  SimTime worst_response = 0;     ///< Max observed release-to-completion.
  SimTime total_response = 0;     ///< Sum over completed jobs (for the mean).

  /// Mean observed response time (0 if no job completed yet).
  SimTime mean_response() const {
    return jobs_completed == 0 ? 0 : total_response / jobs_completed;
  }
  bool job_pending = false;       ///< A released job awaits/executes.
  SimTime job_deadline = 0;
  std::vector<JobSegment> plan;   ///< Remaining segments of the pending job.
  std::size_t segment_index = 0;
  /// One-shot syscall sequence prepended to the *next* job (attack hook:
  /// shellcode payload executes inside the victim's job).
  std::vector<ServiceId> injected_payload;
  bool kill_after_payload = false;
};

/// Aggregate statistics of a simulation run.
struct SchedulerStats {
  std::uint64_t jobs_released = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t ticks = 0;
  std::uint64_t syscalls = 0;
  SimTime idle_time = 0;
  SimTime busy_time = 0;

  double cpu_utilization() const {
    const SimTime total = idle_time + busy_time;
    return total == 0 ? 0.0
                      : static_cast<double>(busy_time) /
                            static_cast<double>(total);
  }
};

/// Preemptive fixed-priority (rate-monotonic) scheduler for one monitored
/// core, driving kernel-service fetch emission onto the memory bus.
///
/// Time advances event-by-event: task releases, the 1 ms scheduler tick,
/// job segment boundaries and externally scheduled actions (attack hooks).
/// Between events the highest-priority pending job consumes CPU; when no
/// job is pending the core runs the kernel idle loop (which, like a real
/// idle loop, still fetches kernel text every millisecond tick).
class Scheduler {
 public:
  static constexpr SimTime kTickPeriod = 1 * kMillisecond;

  Scheduler(const ServiceCatalog& catalog, hw::MemoryBus& bus, Rng rng);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  /// Flushes the events not yet added to the `sim.sched.*` counters (kernel
  /// paths run outside run_until, such as add_task's launch or kill_task).
  ~Scheduler();

  /// Add a task before or during the run. Returns the task index. When
  /// `emit_launch` is set the kernel process-creation path (do_fork +
  /// do_execve) executes first — the application-addition scenario.
  std::size_t add_task(const TaskSpec& spec, bool emit_launch = false);

  /// Kill a task (do_exit path, job dropped, no further releases).
  void kill_task(const std::string& name);

  /// Inject a one-shot syscall payload into the next job of `task`
  /// (shellcode scenario). If `kill_host` the task dies after the payload.
  void inject_payload(const std::string& task,
                      std::vector<std::string> services, bool kill_host);

  /// Add extra latency to every invocation of `service` (rootkit hijack:
  /// the detour runs outside the monitored region, so it costs time but
  /// emits no monitored fetches).
  void set_service_latency(const std::string& service, SimTime extra);

  /// Execute a kernel service immediately at current time, outside any
  /// task context (e.g. the module loader running from insmod).
  void run_service_now(const std::string& service);

  /// Occupy the CPU with non-preemptible kernel work for `duration`
  /// starting now: no task makes progress and the core does not idle.
  /// Models heavyweight kernel paths (module loading/linking) that delay
  /// every task — the timing perturbation real attacks cause.
  void block_cpu(SimTime duration);

  /// Schedule `action` to run at absolute simulated time `when` (>= now).
  void at(SimTime when, std::function<void()> action);

  /// Advance the simulation until `end_time`. On return the `sim.sched.*`
  /// registry counters include every event so far: they are flushed as
  /// deltas of stats() once per call rather than once per event.
  void run_until(SimTime end_time);

  SimTime now() const { return now_; }
  const SchedulerStats& stats() const { return stats_; }
  /// LCM of the active task periods (0 while no task is registered); the
  /// schedule repeats with phase `now() % hyperperiod()`.
  SimTime hyperperiod() const { return hyperperiod_; }
  const std::vector<TaskRuntime>& tasks() const { return tasks_; }
  const TaskRuntime& task(const std::string& name) const;

 private:
  /// Index of the highest-priority task with a pending job, if any.
  std::optional<std::size_t> pick_ready() const;

  /// Build the execution plan (segments) for a newly released job.
  std::vector<JobSegment> build_plan(TaskRuntime& task);

  /// Release a job of task `i` at time `now_` and schedule the next release.
  void release_job(std::size_t i);

  /// Handle completion of the pending job of task `i`.
  void complete_job(std::size_t i);

  /// Run the CPU from now_ to `until` (exclusive), executing the current
  /// job or idling. Returns when `until` is reached or a job completes.
  void execute_window(SimTime until);

  /// Emit the idle loop's fetches for an idle span ending at `until`.
  void emit_idle(SimTime from, SimTime until);

  void process_tick();

  /// Assign rate-monotonic priorities from current periods.
  void reassign_priorities();

  SimTime service_latency(ServiceId sid) const;

  /// Invoke `sid` at now_ outside any task context (run_service_now).
  void invoke_now(ServiceId sid);

  /// Add the stats() growth since the last flush to the registry counters.
  void flush_metrics();

  const ServiceCatalog* catalog_;
  hw::MemoryBus* bus_;
  Rng rng_;
  std::vector<TaskRuntime> tasks_;
  std::multimap<SimTime, std::function<void()>> actions_;
  std::vector<SimTime> extra_latency_;  ///< Indexed by ServiceId.
  SimTime now_ = 0;
  SimTime next_tick_ = 0;
  SimTime hyperperiod_ = 0;  ///< LCM of active periods (overflow-capped).
  SimTime kernel_block_until_ = 0;  ///< CPU reserved by block_cpu().
  std::optional<std::size_t> running_;  ///< Task currently on the CPU.
  SchedulerStats stats_;
  SchedulerStats flushed_;  ///< stats_ as of the last flush_metrics().
  // Cached service ids used by internal paths.
  ServiceId svc_tick_;
  ServiceId svc_switch_;
  ServiceId svc_idle_;
  ServiceId svc_fork_;
  ServiceId svc_execve_;
  ServiceId svc_exit_;
};

}  // namespace mhm::sim
