#include "hw/memometer.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace mhm::hw {

namespace {

struct MeterMetrics {
  obs::Counter& intervals = obs::Registry::instance().counter(
      "hw.memometer.intervals", "monitoring intervals completed");
  obs::Counter& counted = obs::Registry::instance().counter(
      "hw.memometer.fetches_counted", "snooped fetches counted into cells");
  obs::Counter& filtered = obs::Registry::instance().counter(
      "hw.memometer.fetches_filtered",
      "snooped fetches rejected by the address filter");
  obs::Counter& clips = obs::Registry::instance().counter(
      "hw.memometer.cell_saturation_clips",
      "32-bit cell counters that clipped at their ceiling");
};

MeterMetrics& meter_metrics() {
  static MeterMetrics m;
  return m;
}

}  // namespace

Memometer::Memometer(const MhmConfig& config, SimTime start_time,
                     ReadyCallback on_ready)
    : config_(config),
      shift_(config_.shift_bits()),
      on_ready_(std::move(on_ready)) {
  config_.validate();
  const std::size_t cells = config_.cell_count();
  if (cells > kMaxCells) {
    throw ConfigError(
        "Memometer: configured cell count " + std::to_string(cells) +
        " exceeds on-chip memory capacity of " + std::to_string(kMaxCells) +
        " cells; increase the granularity");
  }
  units_[0] = HeatMap(cells);
  units_[1] = HeatMap(cells);
  interval_start_ = start_time;
  units_[0].interval_start = start_time;
}

void Memometer::advance_to(SimTime now) {
  // Fire every interval boundary in (interval_start_, now].
  while (now >= interval_start_ + config_.interval) {
    HeatMap& finished = units_[active_unit_];
    finished.interval_index = interval_index_;
    finished.interval_start = interval_start_;
    ++intervals_completed_;
    // Flush the deltas accumulated since the previous boundary; per-burst
    // increments would put two atomics on every snooped burst.
    MeterMetrics& m = meter_metrics();
    m.intervals.add();
    m.counted.add(counted_ - counted_flushed_);
    m.filtered.add(filtered_out_ - filtered_flushed_);
    m.clips.add(saturation_clips_ - clips_flushed_);
    counted_flushed_ = counted_;
    filtered_flushed_ = filtered_out_;
    clips_flushed_ = saturation_clips_;

    // Swap: the other unit becomes active while this one is analyzed.
    const int analysis_unit = active_unit_;
    active_unit_ = 1 - active_unit_;
    interval_start_ += config_.interval;
    ++interval_index_;
    units_[active_unit_].interval_start = interval_start_;

    if (on_ready_) on_ready_(units_[analysis_unit]);
    // Analysis done (secure core copied what it needed): reset the unit so
    // it is clean when it becomes active again at the next boundary.
    units_[analysis_unit].reset();
  }
}

void Memometer::record(const AccessBurst& burst) {
  // Address filter: offset = Addr* - AddrBase, pass iff 0 <= offset < S.
  // Bursts may straddle the region boundary; only the in-region words count,
  // exactly as per-fetch filtering would.
  const Address region_begin = config_.base;
  const Address region_end = config_.base + config_.size;
  const Address burst_end = burst.base + burst.size_bytes;
  if (burst_end <= region_begin || burst.base >= region_end) {
    filtered_out_ += burst.total_accesses();
    return;
  }

  const Address lo = std::max(burst.base, region_begin);
  const Address hi = std::min(burst_end, region_end);
  // Fetches outside the overlap are filtered.
  const std::uint64_t kept_words =
      (hi - lo + AccessBurst::kWordBytes - 1) / AccessBurst::kWordBytes;
  filtered_out_ += burst.total_accesses() - kept_words * burst.sweeps;

  HeatMap& active = units_[active_unit_];
  const unsigned g = shift_;
  // Cell index of a fetch at addr: (addr - base) >> g. Distribute the swept
  // words of [lo, hi) over the cells they fall in.
  const std::size_t first_cell = static_cast<std::size_t>((lo - region_begin) >> g);
  const std::size_t last_cell =
      static_cast<std::size_t>((hi - 1 - region_begin) >> g);
  for (std::size_t cell = first_cell; cell <= last_cell; ++cell) {
    const Address cell_begin = region_begin + (static_cast<Address>(cell) << g);
    const Address cell_end = cell_begin + config_.granularity;
    const Address seg_lo = std::max(lo, cell_begin);
    const Address seg_hi = std::min(hi, cell_end);
    // Word-aligned fetch count within this cell. Words are anchored at the
    // burst base (the core fetches base, base+4, ...).
    const std::uint64_t first_word =
        (seg_lo - burst.base + AccessBurst::kWordBytes - 1) /
        AccessBurst::kWordBytes;
    const std::uint64_t end_word =
        (seg_hi - burst.base + AccessBurst::kWordBytes - 1) /
        AccessBurst::kWordBytes;
    const std::uint64_t words = end_word - first_word;
    if (words == 0) continue;
    const std::uint64_t count = words * burst.sweeps;
    constexpr std::uint64_t kCellMax = std::numeric_limits<std::uint32_t>::max();
    if (static_cast<std::uint64_t>(active[cell]) + count > kCellMax) {
      ++saturation_clips_;
    }
    active.increment(cell, count);
    counted_ += count;
  }
}

void Memometer::on_burst(const AccessBurst& burst) {
  advance_to(burst.time);
  record(burst);
}

void Memometer::on_time(SimTime now) { advance_to(now); }

void Memometer::finish(SimTime now, bool deliver_partial) {
  advance_to(now);
  if (deliver_partial && now > interval_start_) {
    HeatMap& partial = units_[active_unit_];
    partial.interval_index = interval_index_;
    partial.interval_start = interval_start_;
    if (on_ready_) on_ready_(partial);
    partial.reset();
  }
  // Flush whatever accumulated after the last boundary so end-of-run totals
  // in the registry match the accessors.
  MeterMetrics& m = meter_metrics();
  m.counted.add(counted_ - counted_flushed_);
  m.filtered.add(filtered_out_ - filtered_flushed_);
  m.clips.add(saturation_clips_ - clips_flushed_);
  counted_flushed_ = counted_;
  filtered_flushed_ = filtered_out_;
  clips_flushed_ = saturation_clips_;
}

}  // namespace mhm::hw
