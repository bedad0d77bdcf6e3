#include "sim/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace mhm::sim {

namespace {

/// Process-wide scheduler telemetry (aggregated across every simulated
/// system, including concurrent scenario fan-outs). Each scheduler adds its
/// SchedulerStats growth at the end of every run_until().
struct SchedMetrics {
  obs::Counter& preemptions = obs::Registry::instance().counter(
      "sim.sched.preemptions", "context switches onto a ready task");
  obs::Counter& deadline_misses = obs::Registry::instance().counter(
      "sim.sched.deadline_misses", "jobs that missed their deadline");
  obs::Counter& jobs_released = obs::Registry::instance().counter(
      "sim.sched.jobs_released", "periodic job releases");
  obs::Counter& jobs_completed = obs::Registry::instance().counter(
      "sim.sched.jobs_completed", "jobs run to completion");
  obs::Counter& syscalls = obs::Registry::instance().counter(
      "sim.sched.syscalls", "kernel service invocations");
};

SchedMetrics& sched_metrics() {
  static SchedMetrics m;
  return m;
}

}  // namespace

Scheduler::Scheduler(const ServiceCatalog& catalog, hw::MemoryBus& bus,
                     Rng rng)
    : catalog_(&catalog), bus_(&bus), rng_(rng) {
  extra_latency_.assign(catalog.size(), 0);
  svc_tick_ = catalog.id("sched_tick");
  svc_switch_ = catalog.id("context_switch");
  svc_idle_ = catalog.id("idle_loop");
  svc_fork_ = catalog.id("do_fork");
  svc_execve_ = catalog.id("do_execve");
  svc_exit_ = catalog.id("do_exit");
  next_tick_ = kTickPeriod;
}

Scheduler::~Scheduler() { flush_metrics(); }

std::size_t Scheduler::add_task(const TaskSpec& spec, bool emit_launch) {
  spec.validate();
  for (const auto& t : tasks_) {
    if (t.active && t.spec.name == spec.name) {
      throw ConfigError("Scheduler: task '" + spec.name + "' already exists");
    }
  }
  TaskRuntime rt;
  rt.spec = spec;
  for (const auto& usage : spec.syscalls) {
    rt.syscall_services.push_back(catalog_->id(usage.service));
  }
  rt.rng = rng_.fork(0x7A5Cull + tasks_.size());
  if (emit_launch) {
    // Process creation: fork + execve kernel paths run right now, then the
    // first job is released after a short startup delay.
    invoke_now(svc_fork_);
    invoke_now(svc_execve_);
    rt.next_release = now_ + spec.phase + 2 * kMillisecond;
  } else {
    rt.next_release = now_ + spec.phase;
  }
  tasks_.push_back(std::move(rt));
  reassign_priorities();
  return tasks_.size() - 1;
}

void Scheduler::kill_task(const std::string& name) {
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    TaskRuntime& t = tasks_[i];
    if (t.active && t.spec.name == name) {
      invoke_now(svc_exit_);
      t.active = false;
      t.job_pending = false;
      t.plan.clear();
      if (running_ && *running_ == i) running_.reset();
      return;
    }
  }
  throw ConfigError("Scheduler::kill_task: no active task '" + name + "'");
}

void Scheduler::inject_payload(const std::string& task,
                               std::vector<std::string> services,
                               bool kill_host) {
  for (auto& t : tasks_) {
    if (t.active && t.spec.name == task) {
      std::vector<ServiceId> ids;
      for (const auto& s : services) ids.push_back(catalog_->id(s));
      t.injected_payload = std::move(ids);
      t.kill_after_payload = kill_host;
      return;
    }
  }
  throw ConfigError("Scheduler::inject_payload: no active task '" + task +
                    "'");
}

void Scheduler::set_service_latency(const std::string& service,
                                    SimTime extra) {
  extra_latency_[catalog_->id(service)] = extra;
}

void Scheduler::run_service_now(const std::string& service) {
  invoke_now(catalog_->id(service));
}

void Scheduler::invoke_now(ServiceId sid) {
  (void)catalog_->invoke(sid, now_, *bus_, rng_, extra_latency_[sid]);
  ++stats_.syscalls;
}

void Scheduler::block_cpu(SimTime duration) {
  kernel_block_until_ = std::max(kernel_block_until_, now_ + duration);
}

void Scheduler::at(SimTime when, std::function<void()> action) {
  MHM_ASSERT(when >= now_, "Scheduler::at: cannot schedule in the past");
  actions_.emplace(when, std::move(action));
}

const TaskRuntime& Scheduler::task(const std::string& name) const {
  for (const auto& t : tasks_) {
    if (t.spec.name == name) return t;
  }
  throw ConfigError("Scheduler::task: unknown task '" + name + "'");
}

void Scheduler::reassign_priorities() {
  // Hyperperiod = LCM of active periods; capped so pathological period sets
  // cannot overflow SimTime.
  hyperperiod_ = 0;
  for (const auto& t : tasks_) {
    if (!t.active) continue;
    if (hyperperiod_ == 0) {
      hyperperiod_ = t.spec.period;
    } else if (hyperperiod_ / std::gcd(hyperperiod_, t.spec.period) <=
               std::numeric_limits<SimTime>::max() / t.spec.period) {
      hyperperiod_ = std::lcm(hyperperiod_, t.spec.period);
    } else {
      hyperperiod_ = std::numeric_limits<SimTime>::max();
    }
  }

  // Rate-monotonic: shorter period = higher priority (lower value); ties
  // broken by name for determinism.
  std::vector<std::size_t> order(tasks_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (tasks_[a].spec.period != tasks_[b].spec.period) {
      return tasks_[a].spec.period < tasks_[b].spec.period;
    }
    return tasks_[a].spec.name < tasks_[b].spec.name;
  });
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    tasks_[order[rank]].priority = rank;
  }
}

std::optional<std::size_t> Scheduler::pick_ready() const {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const TaskRuntime& t = tasks_[i];
    if (!t.active || !t.job_pending) continue;
    if (!best || t.priority < tasks_[*best].priority) best = i;
  }
  return best;
}

SimTime Scheduler::service_latency(ServiceId sid) const {
  return extra_latency_[sid];
}

std::vector<JobSegment> Scheduler::build_plan(TaskRuntime& task) {
  std::vector<JobSegment> plan;

  // One-shot injected payload (shellcode scenario): the payload's syscalls
  // execute at the start of this job; if it kills the host, nothing of the
  // normal job runs.
  if (!task.injected_payload.empty()) {
    for (const ServiceId sid : task.injected_payload) {
      plan.push_back(JobSegment{.kind = JobSegment::Kind::Syscall,
                                .remaining = 0,
                                .service = sid});
    }
    task.injected_payload.clear();
    if (task.kill_after_payload) return plan;
  }

  const double exec_jitter = task.rng.lognormal_jitter(task.spec.exec_sigma);
  const auto exec_total = static_cast<SimTime>(
      std::max(1.0, static_cast<double>(task.spec.exec_time) * exec_jitter));

  // Place syscalls at fractional positions of the job's execution.
  struct Placed {
    double position;
    ServiceId service;
  };
  std::vector<Placed> placed;
  for (std::size_t u = 0; u < task.spec.syscalls.size(); ++u) {
    const SyscallUsage& usage = task.spec.syscalls[u];
    const ServiceId sid = task.syscall_services[u];
    const double jittered =
        usage.calls_per_job * task.rng.lognormal_jitter(0.05);
    const auto calls =
        static_cast<std::size_t>(std::max(0.0, std::round(jittered)));
    for (std::size_t c = 0; c < calls; ++c) {
      // Even spacing inside the window with a little random slack keeps the
      // pattern periodic but not robotic.
      const double span = usage.window_end - usage.window_begin;
      const double base_pos =
          usage.window_begin +
          span * (static_cast<double>(c) + 0.5) / static_cast<double>(calls);
      const double slack = span / static_cast<double>(calls) * 0.3;
      const double pos = std::clamp(
          base_pos + task.rng.uniform(-slack, slack), 0.0, 1.0);
      placed.push_back(Placed{pos, sid});
    }
  }
  std::sort(placed.begin(), placed.end(),
            [](const Placed& a, const Placed& b) {
              return a.position < b.position;
            });

  double prev_fraction = 0.0;
  for (const auto& p : placed) {
    const auto compute = static_cast<SimTime>(
        (p.position - prev_fraction) * static_cast<double>(exec_total));
    if (compute > 0) {
      plan.push_back(JobSegment{.kind = JobSegment::Kind::UserCompute,
                                .remaining = compute});
    }
    plan.push_back(JobSegment{.kind = JobSegment::Kind::Syscall,
                              .remaining = 0,
                              .service = p.service});
    prev_fraction = p.position;
  }
  const auto tail = static_cast<SimTime>(
      (1.0 - prev_fraction) * static_cast<double>(exec_total));
  if (tail > 0 || plan.empty()) {
    plan.push_back(JobSegment{.kind = JobSegment::Kind::UserCompute,
                              .remaining = std::max<SimTime>(tail, 1)});
  }
  return plan;
}

void Scheduler::release_job(std::size_t i) {
  TaskRuntime& t = tasks_[i];
  if (t.job_pending) {
    // Previous job overran its period: deadline miss; the stale job is
    // dropped so the task re-synchronizes (typical watchdog behaviour).
    ++t.deadline_misses;
    ++stats_.deadline_misses;
    if (running_ && *running_ == i) running_.reset();
  }
  t.job_pending = true;
  t.plan = build_plan(t);
  t.segment_index = 0;
  t.job_release_time = t.next_release;
  t.job_deadline = t.next_release + t.spec.period;
  ++t.jobs_released;
  ++stats_.jobs_released;
  t.next_release += t.spec.period;
}

void Scheduler::complete_job(std::size_t i) {
  TaskRuntime& t = tasks_[i];
  t.job_pending = false;
  t.plan.clear();
  ++t.jobs_completed;
  ++stats_.jobs_completed;
  const SimTime response = now_ - t.job_release_time;
  t.worst_response = std::max(t.worst_response, response);
  t.total_response += response;
  if (now_ > t.job_deadline) {
    ++t.deadline_misses;
    ++stats_.deadline_misses;
  }
  if (running_ && *running_ == i) running_.reset();
  if (t.kill_after_payload) {
    // Shellcode spawned a shell and killed its host process.
    invoke_now(svc_exit_);
    t.active = false;
    t.kill_after_payload = false;
  }
}

void Scheduler::emit_idle(SimTime from, SimTime until) {
  MHM_ASSERT(until >= from, "emit_idle: inverted span");
  const SimTime span = until - from;
  if (span == 0) return;
  stats_.idle_time += span;
  // The idle loop sweeps its kernel functions at a rate proportional to the
  // idle duration (one nominal invocation per idle millisecond).
  const double scale =
      static_cast<double>(span) / static_cast<double>(kMillisecond);
  const KernelService& svc = catalog_->service(svc_idle_);
  for (const auto& step : svc.steps) {
    const auto& fn = catalog_->image().function(step.function);
    const double jitter = rng_.lognormal_jitter(svc.sweep_sigma);
    const auto sweeps = static_cast<std::uint64_t>(
        std::max(1.0, std::round(step.mean_sweeps * scale * jitter)));
    bus_->publish(hw::AccessBurst{.time = from,
                                  .base = fn.address,
                                  .size_bytes = fn.size_bytes,
                                  .sweeps = sweeps});
  }
}

void Scheduler::process_tick() {
  ++stats_.ticks;
  (void)catalog_->invoke(svc_tick_, now_, *bus_, rng_);
}

void Scheduler::execute_window(SimTime until) {
  while (now_ < until) {
    if (now_ < kernel_block_until_) {
      // Non-preemptible kernel work holds the core: time passes as busy
      // without any task progress.
      const SimTime span = std::min(until, kernel_block_until_) - now_;
      stats_.busy_time += span;
      now_ += span;
      continue;
    }
    const auto ready = pick_ready();
    if (ready != running_) {
      if (ready) {
        // Switching onto a (different) task: context-switch path runs.
        (void)catalog_->invoke(svc_switch_, now_, *bus_, rng_);
        ++stats_.context_switches;
      }
      running_ = ready;
    }
    if (!running_) {
      emit_idle(now_, until);
      now_ = until;
      return;
    }

    TaskRuntime& t = tasks_[*running_];
    MHM_ASSERT(t.segment_index < t.plan.size(),
               "execute_window: running job has no segments");
    JobSegment& seg = t.plan[t.segment_index];

    if (seg.kind == JobSegment::Kind::Syscall && !seg.service_emitted) {
      // Kernel path fetches hit the bus when the syscall enters; the
      // syscall's (jittered) duration plus any hijack latency becomes the
      // segment's CPU demand.
      seg.remaining = catalog_->invoke(seg.service, now_, *bus_, t.rng,
                                       service_latency(seg.service));
      seg.service_emitted = true;
      ++stats_.syscalls;
    }
    if (seg.kind == JobSegment::Kind::UserCompute && !seg.service_emitted) {
      // User-space instruction fetches: outside the monitored kernel region,
      // but published so the Memometer's address filter sees realistic
      // traffic. One burst over a slice of the task's text per segment.
      const std::uint64_t slice = std::max<std::uint64_t>(
          256, t.spec.user_text_size / 16);
      const auto offset = static_cast<std::uint64_t>(t.rng.uniform_int(
          0, static_cast<std::int64_t>(t.spec.user_text_size - slice)));
      bus_->publish(hw::AccessBurst{
          .time = now_,
          .base = t.spec.user_text_base + (offset & ~3ull),
          .size_bytes = slice,
          .sweeps = 1 + static_cast<std::uint64_t>(
                        seg.remaining / (100 * kMicrosecond))});
      seg.service_emitted = true;
    }

    const SimTime run = std::min<SimTime>(seg.remaining, until - now_);
    seg.remaining -= run;
    stats_.busy_time += run;
    now_ += run;

    if (seg.remaining == 0) {
      ++t.segment_index;
      if (t.segment_index >= t.plan.size()) complete_job(*running_);
    }
  }
}

void Scheduler::run_until(SimTime end_time) {
  MHM_ASSERT(end_time >= now_, "run_until: end time in the past");
  while (now_ < end_time) {
    // 1. Fire everything due at the current instant.
    bool fired = true;
    while (fired) {
      fired = false;
      while (next_tick_ <= now_) {
        process_tick();
        next_tick_ += kTickPeriod;
        fired = true;
      }
      while (!actions_.empty() && actions_.begin()->first <= now_) {
        auto action = std::move(actions_.begin()->second);
        actions_.erase(actions_.begin());
        action();
        fired = true;
      }
      for (std::size_t i = 0; i < tasks_.size(); ++i) {
        while (tasks_[i].active && tasks_[i].next_release <= now_) {
          release_job(i);
          fired = true;
        }
      }
    }

    // 2. Find the next event horizon.
    SimTime horizon = std::min(end_time, next_tick_);
    if (!actions_.empty()) horizon = std::min(horizon, actions_.begin()->first);
    for (const auto& t : tasks_) {
      if (t.active) horizon = std::min(horizon, t.next_release);
    }
    MHM_ASSERT(horizon > now_, "run_until: event horizon did not advance");

    // 3. Run the CPU up to the horizon.
    execute_window(horizon);
    bus_->advance_time(now_);
  }
  flush_metrics();
}

void Scheduler::flush_metrics() {
  SchedMetrics& m = sched_metrics();
  m.preemptions.add(stats_.context_switches - flushed_.context_switches);
  m.deadline_misses.add(stats_.deadline_misses - flushed_.deadline_misses);
  m.jobs_released.add(stats_.jobs_released - flushed_.jobs_released);
  m.jobs_completed.add(stats_.jobs_completed - flushed_.jobs_completed);
  m.syscalls.add(stats_.syscalls - flushed_.syscalls);
  flushed_ = stats_;
}

}  // namespace mhm::sim
