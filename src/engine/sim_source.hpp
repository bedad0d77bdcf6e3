#pragma once

#include "engine/source.hpp"
#include "sim/system.hpp"

namespace mhm::engine {

/// Pull-based view of a live sim::System: each next() advances the
/// simulation one monitoring interval at a time (chunked run_for — the
/// scheduler's event loop makes chunked stepping bit-identical to one long
/// run) until the Memometer completes a map or the budgeted duration is
/// exhausted.
///
/// The source drains the system's trace: after each step it moves the
/// completed maps out with take_trace() and yields them in order, so each
/// map exists once and the system's trace stays empty behind it. Maps
/// already in the trace when the source is built are yielded first. The
/// system's interval-observer slot is left free.
class SimIntervalSource final : public IntervalSource {
 public:
  /// Will simulate up to `duration` from the system's current now().
  SimIntervalSource(sim::System& system, SimTime duration);

  SimIntervalSource(const SimIntervalSource&) = delete;
  SimIntervalSource& operator=(const SimIntervalSource&) = delete;

  std::optional<SourceItem> next() override;

  /// Simulation time not yet consumed by next() calls.
  SimTime remaining() const { return remaining_; }

 private:
  sim::System& system_;
  SimTime interval_;
  SimTime remaining_;
  HeatMapTrace pending_;     ///< Maps taken from the system.
  std::size_t cursor_ = 0;   ///< Next map of pending_ to yield.
};

}  // namespace mhm::engine
