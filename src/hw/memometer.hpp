#pragma once

#include <cstdint>
#include <functional>

#include "core/heatmap.hpp"
#include "hw/memory_bus.hpp"

namespace mhm::hw {

/// Behavioural model of the Memometer (paper §3.1, Figure 4): the on-chip
/// module that snoops the address line between the monitored core and its L1
/// cache and aggregates fetches into Memory Heat Maps.
///
/// Modelled blocks and their paper counterparts:
///  * control registers — base address, region size, granularity (power of
///    two), monitoring interval; written by the secure core before start.
///  * address filter — offset = Addr* - AddrBase; pass iff 0 <= offset < S.
///  * target-cell logic — idx = offset >> g with g = log2(δ).
///  * two on-chip MHM memories of `kMemoryBytes` each, double-buffered: the
///    active unit accumulates the current interval while the secure core
///    analyzes the previous one; units swap at interval boundaries.
///  * interval timer — fires the ready callback at each boundary.
///
/// Cell counters are 32-bit and saturate. The on-chip memory size bounds the
/// number of cells (8 KB / 4 B = 2,048 cells, "at most about 2,000 cells"),
/// not the size of the monitored region — granularity covers larger regions.
class Memometer final : public BusObserver {
 public:
  /// Size of each on-chip MHM memory unit (8 KB in the prototype).
  static constexpr std::uint64_t kMemoryBytes = 8 * 1024;
  static constexpr std::size_t kMaxCells =
      static_cast<std::size_t>(kMemoryBytes / sizeof(std::uint32_t));

  /// Invoked (conceptually: secure core interrupt) whenever an interval
  /// completes; receives the finished MHM. Runs inside the simulation step,
  /// so keep it light — SecureCore copies the map out.
  using ReadyCallback = std::function<void(const HeatMap&)>;

  /// Configure and arm the Memometer. Throws ConfigError if the configured
  /// cell count exceeds the on-chip memory capacity or the config is
  /// otherwise invalid. Monitoring starts at `start_time`.
  Memometer(const MhmConfig& config, SimTime start_time,
            ReadyCallback on_ready);

  const MhmConfig& config() const { return config_; }

  /// --- BusObserver ---
  void on_burst(const AccessBurst& burst) override;
  void on_time(SimTime now) override;

  /// Flush: finalize the current (possibly partial) interval. Used at the
  /// end of a simulation run. The partial map is delivered only if
  /// `deliver_partial` and it saw any time at all.
  void finish(SimTime now, bool deliver_partial = false);

  /// --- statistics / inspection ---
  std::uint64_t intervals_completed() const { return intervals_completed_; }
  std::uint64_t accesses_filtered_out() const { return filtered_out_; }
  std::uint64_t accesses_counted() const { return counted_; }
  /// Times a 32-bit cell counter clipped at its ceiling this run.
  std::uint64_t cell_saturation_clips() const { return saturation_clips_; }
  /// Which of the two on-chip memories currently accumulates (0 or 1).
  int active_unit() const { return active_unit_; }
  /// Read-only view of the active (in-progress) map — secure-core debug aid.
  const HeatMap& active_map() const { return units_[active_unit_]; }

 private:
  /// Advance the interval timer to `now`, swapping buffers and invoking the
  /// callback for every boundary crossed.
  void advance_to(SimTime now);

  /// Count one burst into the active unit (pure cell arithmetic, equivalent
  /// to per-fetch processing).
  void record(const AccessBurst& burst);

  MhmConfig config_;
  unsigned shift_ = 0;         ///< g = log2(δ), the target-cell shift.
  ReadyCallback on_ready_;
  HeatMap units_[2];           ///< The two on-chip MHM memories.
  int active_unit_ = 0;
  SimTime interval_start_ = 0; ///< Start of the active interval.
  std::uint64_t interval_index_ = 0;
  std::uint64_t intervals_completed_ = 0;
  std::uint64_t filtered_out_ = 0;
  std::uint64_t counted_ = 0;
  std::uint64_t saturation_clips_ = 0;
  // Metrics-flush watermarks: deltas since the last interval boundary are
  // pushed to the obs registry once per interval, keeping the snoop path hot.
  std::uint64_t filtered_flushed_ = 0;
  std::uint64_t counted_flushed_ = 0;
  std::uint64_t clips_flushed_ = 0;
};

}  // namespace mhm::hw
