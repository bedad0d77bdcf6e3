#include "engine/sim_source.hpp"

#include <algorithm>
#include <utility>

namespace mhm::engine {

SimIntervalSource::SimIntervalSource(sim::System& system, SimTime duration)
    : system_(system),
      interval_(system.config().monitor.interval),
      remaining_(duration) {}

std::optional<SourceItem> SimIntervalSource::next() {
  // Advance interval-by-interval until a map lands. A trailing partial
  // interval is still simulated (the run covers the full duration) but
  // completes no map — exactly run_for(duration)'s behaviour.
  while (cursor_ == pending_.size()) {
    if (!system_.trace().empty()) {
      pending_ = system_.take_trace();
      cursor_ = 0;
      break;
    }
    if (remaining_ == 0) return std::nullopt;
    const SimTime step = std::min(interval_, remaining_);
    system_.run_for(step);
    remaining_ -= step;
  }
  HeatMap& map = pending_[cursor_++];
  return SourceItem{.interval_index = map.interval_index,
                    .map = std::move(map)};
}

}  // namespace mhm::engine
