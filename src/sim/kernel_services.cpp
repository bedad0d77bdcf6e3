#include "sim/kernel_services.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace mhm::sim {

namespace {

std::vector<SweepRounding> sweep_rounding(const KernelService& svc) {
  std::vector<SweepRounding> out;
  out.reserve(svc.steps.size());
  for (const auto& step : svc.steps) {
    out.emplace_back(step.mean_sweeps, svc.sweep_sigma);
  }
  return out;
}

}  // namespace

SweepRounding::SweepRounding(double mean, double sigma)
    : mean_(mean),
      sigma_(sigma),
      nominal_(exact(0.0)),
      lo_(0.0),
      hi_(0.0) {
  MHM_ASSERT(sigma >= 0.0, "SweepRounding: sigma must be non-negative");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kGuard = 1e-9;
  if (sigma == 0.0) {
    // exp(0 · z) is exactly 1 for every finite draw.
    lo_ = -kInf;
    hi_ = kInf;
  } else if (mean > 0.0 && std::isfinite(mean)) {
    // Otherwise the range stays empty: exact() always.
    const double k = static_cast<double>(nominal_);
    // round() sends [k - ½, k + ½) to k; below 1.5 max(1, ·) yields 1.
    lo_ = nominal_ > 1 ? (std::log((k - 0.5) / mean) + kGuard) / sigma : -kInf;
    hi_ = (std::log((k + 0.5) / mean) - kGuard) / sigma;
  }
}

double KernelService::expected_accesses(const KernelImage& image) const {
  double total = 0.0;
  for (const auto& step : steps) {
    const auto& fn = image.function(step.function);
    const double words = std::ceil(static_cast<double>(fn.size_bytes) /
                                   static_cast<double>(hw::AccessBurst::kWordBytes));
    total += words * step.mean_sweeps;
  }
  return total;
}

ServiceCatalog::ServiceCatalog(const KernelImage& image, double jitter_scale)
    : image_(&image) {
  if (jitter_scale < 0.0) {
    throw ConfigError("ServiceCatalog: jitter_scale must be non-negative");
  }
  build_default_catalog();
  if (jitter_scale != 1.0) {
    for (std::size_t sid = 0; sid < services_.size(); ++sid) {
      services_[sid].duration_sigma *= jitter_scale;
      services_[sid].sweep_sigma *= jitter_scale;
      sweep_rounding_[sid] = sweep_rounding(services_[sid]);
    }
  }
}

ServiceId ServiceCatalog::id(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw ConfigError("ServiceCatalog: unknown service '" + name + "'");
  }
  return it->second;
}

bool ServiceCatalog::contains(const std::string& name) const {
  return by_name_.contains(name);
}

const KernelService& ServiceCatalog::service(ServiceId sid) const {
  MHM_ASSERT(sid < services_.size(), "ServiceCatalog: id out of range");
  return services_[sid];
}

const KernelService& ServiceCatalog::service(const std::string& name) const {
  return services_[id(name)];
}

ServiceId ServiceCatalog::add(KernelService svc) {
  if (by_name_.contains(svc.name)) {
    throw ConfigError("ServiceCatalog: duplicate service '" + svc.name + "'");
  }
  for (const auto& step : svc.steps) {
    MHM_ASSERT(step.function < image_->functions().size(),
               "ServiceCatalog::add: step references unknown function");
  }
  const ServiceId sid = services_.size();
  by_name_[svc.name] = sid;
  sweep_rounding_.push_back(sweep_rounding(svc));
  services_.push_back(std::move(svc));
  return sid;
}

SimTime ServiceCatalog::invoke(ServiceId sid, SimTime time, hw::MemoryBus& bus,
                               Rng& rng, SimTime extra_latency) const {
  const KernelService& svc = service(sid);
  const std::vector<SweepRounding>& rounding = sweep_rounding_[sid];
  for (std::size_t i = 0; i < svc.steps.size(); ++i) {
    const auto& fn = image_->function(svc.steps[i].function);
    bus.publish(hw::AccessBurst{.time = time,
                                .base = fn.address,
                                .size_bytes = fn.size_bytes,
                                .sweeps = rounding[i](rng.normal())});
  }
  const double dur = static_cast<double>(svc.mean_duration) *
                     rng.lognormal_jitter(svc.duration_sigma);
  return static_cast<SimTime>(std::max(1.0, dur)) + extra_latency;
}

void ServiceCatalog::add_path(KernelService& svc, const std::string& subsystem,
                              std::size_t count, double sweeps,
                              std::uint64_t salt) const {
  const auto fns = image_->pick_functions(subsystem, count, salt);
  for (std::size_t fn : fns) {
    svc.steps.push_back(ServiceStep{.function = fn, .mean_sweeps = sweeps});
  }
}

void ServiceCatalog::build_default_catalog() {
  // Each service gets a distinct salt so overlapping subsystems still yield
  // distinct function sets; the salts are arbitrary but fixed.
  std::uint64_t salt = 1;
  auto make = [&](const std::string& name, SimTime duration) {
    KernelService svc;
    svc.name = name;
    svc.mean_duration = duration;
    return svc;
  };
  auto syscall_prologue = [&](KernelService& svc) {
    // Every syscall passes through entry stubs and the dispatch table.
    add_path(svc, "entry", 2, 1.0, salt++);
    add_path(svc, "syscall", 1, 1.0, salt++);
  };

  {  // sys_read: vfs -> driver/fs -> lib copy helpers. The rootkit scenario
     // hijacks this service's dispatch (§5.3-3).
    KernelService svc = make("sys_read", 6 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "fs", 5, 1.5, salt++);
    add_path(svc, "drivers", 2, 1.0, salt++);
    add_path(svc, "lib", 2, 3.0, salt++);
    add(std::move(svc));
  }
  {  // sys_write: mirrors read with a different fs/driver path.
    KernelService svc = make("sys_write", 6 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "fs", 5, 1.5, salt++);
    add_path(svc, "drivers", 2, 1.0, salt++);
    add_path(svc, "lib", 2, 2.5, salt++);
    add(std::move(svc));
  }
  {  // sys_open: path lookup is fs-heavy with security hooks.
    KernelService svc = make("sys_open", 10 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "fs", 8, 2.0, salt++);
    add_path(svc, "security", 2, 1.0, salt++);
    add_path(svc, "mm", 1, 1.0, salt++);
    add(std::move(svc));
  }
  {  // sys_close
    KernelService svc = make("sys_close", 3 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "fs", 3, 1.0, salt++);
    add(std::move(svc));
  }
  {  // sys_gettimeofday: time subsystem, cheap.
    KernelService svc = make("sys_gettimeofday", 1 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "time", 2, 1.0, salt++);
    add(std::move(svc));
  }
  {  // sys_nanosleep: timers + scheduler interaction.
    KernelService svc = make("sys_nanosleep", 4 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "time", 3, 1.5, salt++);
    add_path(svc, "sched", 2, 1.0, salt++);
    add(std::move(svc));
  }
  {  // sys_mmap
    KernelService svc = make("sys_mmap", 8 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "mm", 6, 1.5, salt++);
    add_path(svc, "fs", 2, 1.0, salt++);
    add(std::move(svc));
  }
  {  // sys_brk
    KernelService svc = make("sys_brk", 4 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "mm", 4, 1.0, salt++);
    add(std::move(svc));
  }
  {  // sys_ipc: pipe/futex-style communication.
    KernelService svc = make("sys_ipc", 5 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "ipc", 4, 1.5, salt++);
    add_path(svc, "sched", 1, 1.0, salt++);
    add(std::move(svc));
  }
  {  // do_fork: process duplication — mm-heavy (copying page tables) with
     // scheduler enqueue. Dominant cost of launching an application.
    KernelService svc = make("do_fork", 150 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "fork_exec", 10, 3.0, salt++);
    add_path(svc, "mm", 12, 4.0, salt++);
    add_path(svc, "sched", 3, 1.5, salt++);
    add_path(svc, "fs", 4, 1.0, salt++);
    add(std::move(svc));
  }
  {  // do_execve: image load — fs (reading the binary) + mm (mapping it).
    KernelService svc = make("do_execve", 300 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "fork_exec", 8, 2.5, salt++);
    add_path(svc, "fs", 10, 4.0, salt++);
    add_path(svc, "mm", 10, 3.0, salt++);
    add_path(svc, "security", 3, 1.0, salt++);
    add(std::move(svc));
  }
  {  // do_exit: teardown — mm unmap + fs close + signal parent.
    KernelService svc = make("do_exit", 80 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "fork_exec", 6, 2.0, salt++);
    add_path(svc, "mm", 8, 2.5, salt++);
    add_path(svc, "fs", 4, 1.0, salt++);
    add_path(svc, "signal", 2, 1.0, salt++);
    add(std::move(svc));
  }
  {  // sys_kill: signal delivery.
    KernelService svc = make("sys_kill", 5 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "signal", 4, 1.5, salt++);
    add_path(svc, "sched", 1, 1.0, salt++);
    add(std::move(svc));
  }
  {  // sys_waitpid
    KernelService svc = make("sys_waitpid", 4 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "fork_exec", 3, 1.0, salt++);
    add_path(svc, "signal", 1, 1.0, salt++);
    add(std::move(svc));
  }
  {  // sys_personality: the ASLR-disable knob the shellcode flips (§5.3-2).
    KernelService svc = make("sys_personality", 2 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "fork_exec", 2, 1.0, salt++);
    add(std::move(svc));
  }
  {  // sys_mprotect: used by exploit payloads to make pages executable.
    KernelService svc = make("sys_mprotect", 6 * kMicrosecond);
    syscall_prologue(svc);
    add_path(svc, "mm", 5, 1.5, salt++);
    add_path(svc, "security", 1, 1.0, salt++);
    add(std::move(svc));
  }
  {  // load_module: the LKM loader path the rootkit exercises once (§5.3-3).
     // Relocating, allocating and linking a module is a heavyweight burst —
     // the distinguishable spike of Figure 9.
    KernelService svc = make("load_module", 3 * kMillisecond);
    syscall_prologue(svc);
    add_path(svc, "module", 20, 40.0, salt++);
    add_path(svc, "mm", 12, 15.0, salt++);
    add_path(svc, "fs", 10, 10.0, salt++);
    add_path(svc, "lib", 4, 20.0, salt++);
    add_path(svc, "security", 2, 1.0, salt++);
    add(std::move(svc));
  }
  {  // page_fault: minor fault service path.
    KernelService svc = make("page_fault", 3 * kMicrosecond);
    add_path(svc, "entry", 1, 1.0, salt++);
    add_path(svc, "mm", 4, 1.5, salt++);
    add(std::move(svc));
  }
  {  // sched_tick: periodic timer interrupt + scheduler bookkeeping. Fires
     // every millisecond on the monitored core regardless of workload.
    KernelService svc = make("sched_tick", 2 * kMicrosecond);
    add_path(svc, "entry", 1, 1.0, salt++);
    add_path(svc, "irq", 2, 1.0, salt++);
    add_path(svc, "time", 3, 1.5, salt++);
    add_path(svc, "sched", 3, 1.0, salt++);
    add(std::move(svc));
  }
  {  // context_switch: the scheduler's task swap path.
    KernelService svc = make("context_switch", 3 * kMicrosecond);
    add_path(svc, "sched", 5, 1.5, salt++);
    add_path(svc, "entry", 1, 1.0, salt++);
    add_path(svc, "mm", 1, 1.0, salt++);
    add(std::move(svc));
  }
  {  // irq_dispatch: device interrupt outside the tick.
    KernelService svc = make("irq_dispatch", 2 * kMicrosecond);
    add_path(svc, "entry", 1, 1.0, salt++);
    add_path(svc, "irq", 3, 1.5, salt++);
    add_path(svc, "drivers", 2, 1.0, salt++);
    add(std::move(svc));
  }
  {  // idle_loop: the cpu_idle body, swept repeatedly while the core waits.
     // Invoked once per idle millisecond by the scheduler.
    KernelService svc = make("idle_loop", 0);
    add_path(svc, "sched", 1, 12.0, salt++);
    add_path(svc, "time", 1, 4.0, salt++);
    add(std::move(svc));
  }
  {  // kworker: background kernel-thread housekeeping (flush, timers).
    KernelService svc = make("kworker", 15 * kMicrosecond);
    add_path(svc, "sched", 2, 1.0, salt++);
    add_path(svc, "fs", 3, 1.0, salt++);
    add_path(svc, "drivers", 3, 1.0, salt++);
    add_path(svc, "lib", 1, 2.0, salt++);
    add(std::move(svc));
  }
}

}  // namespace mhm::sim
