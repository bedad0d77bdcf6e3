#include "hw/memory_bus.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace mhm::hw {

namespace {

obs::Counter& bursts_counter() {
  static obs::Counter& c = obs::Registry::instance().counter(
      "hw.bus.bursts", "fetch bursts published on the monitored bus");
  return c;
}

}  // namespace

MemoryBus::~MemoryBus() { flush_metrics(); }

void MemoryBus::flush_metrics() {
  bursts_counter().add(bursts_ - bursts_flushed_);
  bursts_flushed_ = bursts_;
}

void MemoryBus::attach(BusObserver* observer) {
  MHM_ASSERT(observer != nullptr, "MemoryBus::attach: null observer");
  MHM_ASSERT(std::find(observers_.begin(), observers_.end(), observer) ==
                 observers_.end(),
             "MemoryBus::attach: observer already attached");
  observers_.push_back(observer);
}

void MemoryBus::detach(BusObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void MemoryBus::publish(const AccessBurst& burst) {
  MHM_ASSERT(burst.time >= last_time_,
             "MemoryBus::publish: timestamps must be non-decreasing");
  MHM_ASSERT(burst.sweeps > 0 && burst.size_bytes > 0,
             "MemoryBus::publish: empty burst");
  last_time_ = burst.time;
  ++bursts_;
  accesses_ += burst.total_accesses();
  for (auto* obs : observers_) obs->on_burst(burst);
}

void MemoryBus::publish_access(SimTime time, Address addr) {
  publish(AccessBurst{.time = time, .base = addr, .size_bytes = 4, .sweeps = 1});
}

void MemoryBus::advance_time(SimTime now) {
  MHM_ASSERT(now >= last_time_,
             "MemoryBus::advance_time: time must not go backwards");
  last_time_ = now;
  flush_metrics();
  for (auto* obs : observers_) obs->on_time(now);
}

}  // namespace mhm::hw
