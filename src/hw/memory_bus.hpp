#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.hpp"

namespace mhm::hw {

/// One instruction-fetch burst on the monitored core's address bus: the core
/// sweeps the word-aligned range [base, base + size_bytes) sequentially,
/// `sweeps` times (a function body executed in a loop). A single fetch is a
/// burst with size_bytes = 4 and sweeps = 1.
///
/// Bursts are a simulation efficiency device: observers that need per-access
/// granularity (e.g. the cache model) expand them; the Memometer computes
/// the per-cell contribution arithmetically, which is bit-identical to
/// processing each fetch individually.
struct AccessBurst {
  SimTime time = 0;        ///< Timestamp of the burst (monotone per bus).
  Address base = 0;        ///< Starting virtual address.
  std::uint64_t size_bytes = 4;  ///< Extent of the swept range.
  std::uint64_t sweeps = 1;      ///< How many times the range is swept.

  /// Word size of an instruction fetch (ARM: 4 bytes).
  static constexpr std::uint64_t kWordBytes = 4;

  /// Total individual fetches this burst represents.
  std::uint64_t total_accesses() const {
    return ((size_bytes + kWordBytes - 1) / kWordBytes) * sweeps;
  }
};

/// Anything that snoops the address bus (Memometer, cache model, trace
/// recorder). Observers must tolerate bursts with non-decreasing timestamps.
class BusObserver {
 public:
  virtual ~BusObserver() = default;

  /// A burst appeared on the bus.
  virtual void on_burst(const AccessBurst& burst) = 0;

  /// Simulated time advanced to `now` with no traffic; lets interval timers
  /// fire on quiet buses.
  virtual void on_time(SimTime now) { (void)now; }
};

/// The address bus between the monitored core and its L1 cache (Figure 3).
/// The simulator publishes fetch bursts here; hardware models subscribe.
/// Observers are non-owning: callers keep them alive while attached.
class MemoryBus {
 public:
  MemoryBus() = default;
  MemoryBus(const MemoryBus&) = delete;
  MemoryBus& operator=(const MemoryBus&) = delete;
  /// Flushes the bursts not yet added to `hw.bus.bursts`.
  ~MemoryBus();

  void attach(BusObserver* observer);
  void detach(BusObserver* observer);

  /// Publish a burst to every observer. Timestamps must be non-decreasing;
  /// violating that throws LogicError (it would corrupt interval accounting).
  void publish(const AccessBurst& burst);

  /// Publish a single fetch.
  void publish_access(SimTime time, Address addr);

  /// Advance time with no traffic. Also flushes the bursts published since
  /// the last flush to the `hw.bus.bursts` registry counter, so the publish
  /// path itself touches no shared atomics; the scheduler advances time once
  /// per event horizon.
  void advance_time(SimTime now);

  std::uint64_t bursts_published() const { return bursts_; }
  std::uint64_t accesses_published() const { return accesses_; }
  SimTime last_time() const { return last_time_; }

 private:
  std::vector<BusObserver*> observers_;
  std::uint64_t bursts_ = 0;
  std::uint64_t bursts_flushed_ = 0;  ///< bursts_ as of the last flush.
  std::uint64_t accesses_ = 0;
  SimTime last_time_ = 0;

  void flush_metrics();
};

}  // namespace mhm::hw
