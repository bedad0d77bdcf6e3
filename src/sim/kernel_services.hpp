#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hw/memory_bus.hpp"
#include "sim/kernel_image.hpp"

namespace mhm::sim {

/// One step of a kernel service's execution path: execute `function` bodies
/// `mean_sweeps` times (loops / repeated helper calls).
struct ServiceStep {
  std::size_t function = 0;   ///< Index into KernelImage::functions().
  double mean_sweeps = 1.0;   ///< Average times the body is swept.
};

/// A kernel service: the code path executed by one syscall / interrupt /
/// scheduler operation. Invoking a service emits instruction-fetch bursts
/// for every step and consumes `mean_duration` of CPU time (with jitter).
struct KernelService {
  std::string name;
  std::vector<ServiceStep> steps;
  SimTime mean_duration = 2 * kMicrosecond;
  double duration_sigma = 0.05;   ///< Log-normal jitter on duration.
  double sweep_sigma = 0.10;      ///< Log-normal jitter on sweep counts.

  /// Expected fetches per invocation (pre-jitter), for calibration tests.
  double expected_accesses(const KernelImage& image) const;
};

/// A step's jittered sweep count for the standard-normal draw `z`:
/// max(1, round(mean · exp(sigma · z))), bit for bit. The count only changes
/// where z crosses ln((k ± ½)/mean)/sigma, so the z range that yields the
/// nominal count max(1, round(mean)) is precomputed and `exp` runs only for
/// draws outside it. The range stops 1e-9 short of each edge in sigma·z,
/// far wider than the rounding error of exp and of the edges themselves, so
/// draws next to an edge take the exact formula too.
class SweepRounding {
 public:
  SweepRounding(double mean, double sigma);

  std::uint64_t operator()(double z) const {
    return z > lo_ && z < hi_ ? nominal_ : exact(z);
  }

  /// Open z range over which operator() returns the nominal count.
  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  /// The formula itself, evaluated as written.
  std::uint64_t exact(double z) const {
    return static_cast<std::uint64_t>(
        std::max(1.0, std::round(mean_ * std::exp(sigma_ * z))));
  }

  double mean_;
  double sigma_;
  std::uint64_t nominal_;
  double lo_;
  double hi_;
};

/// Identifier of a service inside a ServiceCatalog.
using ServiceId = std::size_t;

/// The catalog of kernel services built over a KernelImage.
///
/// The default catalog models the services the paper's workload exercises:
/// syscalls used by the MiBench-like tasks (read/write/open/close/
/// gettimeofday/nanosleep/mmap/brk), process management (fork/execve/exit/
/// kill/waitpid), the scheduler tick, context switch, IRQ dispatch, the
/// module loader (rootkit scenario), the page-fault path, the idle loop and
/// background kworker activity. Every service is a weighted walk over the
/// subsystems a real kernel's equivalent path would traverse.
class ServiceCatalog {
 public:
  /// `jitter_scale` multiplies every service's duration/sweep sigmas:
  /// 1.0 is the default embedded-Linux-like variability; 0.0 models a
  /// fully deterministic RTOS (the paper's conclusion conjectures the
  /// technique gets stronger there); > 1 models a noisy general-purpose
  /// system.
  explicit ServiceCatalog(const KernelImage& image, double jitter_scale = 1.0);

  const KernelImage& image() const { return *image_; }

  ServiceId id(const std::string& name) const;  ///< Throws if unknown.
  bool contains(const std::string& name) const;
  const KernelService& service(ServiceId id) const;
  const KernelService& service(const std::string& name) const;
  std::size_t size() const { return services_.size(); }

  /// Invoke a service at `time`: emit its fetch bursts onto `bus` and return
  /// the consumed CPU time (jittered duration + `extra_latency`).
  /// `extra_latency` models out-of-region work such as a hijacked syscall
  /// handler running from module space (rootkit scenario §5.3-3): it adds
  /// time but no monitored fetches.
  SimTime invoke(ServiceId id, SimTime time, hw::MemoryBus& bus, Rng& rng,
                 SimTime extra_latency = 0) const;

  /// Register a custom service; returns its id. Name must be unique.
  ServiceId add(KernelService service);

 private:
  void build_default_catalog();

  /// Helper used by the builder: append steps touching `count` functions of
  /// `subsystem`, each swept `sweeps` times on average.
  void add_path(KernelService& svc, const std::string& subsystem,
                std::size_t count, double sweeps, std::uint64_t salt) const;

  const KernelImage* image_;
  std::vector<KernelService> services_;
  /// Per service, one SweepRounding per step (from its current sweep_sigma).
  std::vector<std::vector<SweepRounding>> sweep_rounding_;
  std::unordered_map<std::string, ServiceId> by_name_;
};

}  // namespace mhm::sim
