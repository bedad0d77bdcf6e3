#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace mhm {

/// Monitoring parameters of a Memory Heat Map (paper §2): where and at what
/// detail the memory behaviour is observed. An MHM is fully described by the
/// triple (AddrBase, S, δ) plus the monitoring interval.
struct MhmConfig {
  Address base = 0xC0008000;        ///< AddrBase: start of monitored region.
  std::uint64_t size = 3'013'284;   ///< S: region size in bytes.
  std::uint64_t granularity = 2048; ///< δ: cell size in bytes (power of 2).
  SimTime interval = 10 * kMillisecond;  ///< MHM sampling interval.

  /// Number of cells L = ceil(S / δ).
  std::size_t cell_count() const {
    return static_cast<std::size_t>((size + granularity - 1) / granularity);
  }

  /// log2(δ); the Memometer's shift amount g.
  unsigned shift_bits() const { return log2_floor(granularity); }

  /// Throws ConfigError unless granularity is a power of two, size > 0 and
  /// interval > 0.
  void validate() const;

  /// The paper's default configuration (Linux kernel .text on the prototype:
  /// base 0xC0008000, 3,013,284 bytes, δ = 2 KB -> 1,472 cells, 10 ms).
  static MhmConfig paper_default();
};

/// One Memory Heat Map: a vector of per-cell access counts aggregated over a
/// monitoring interval. Plain data; all learning happens on projections.
class HeatMap {
 public:
  HeatMap() = default;
  explicit HeatMap(std::size_t cells) : counts_(cells, 0) {}

  std::size_t cell_count() const { return counts_.size(); }

  std::uint32_t operator[](std::size_t i) const { return counts_[i]; }

  /// Saturating increment (hardware counters are 32-bit).
  void increment(std::size_t cell, std::uint64_t by = 1) {
    MHM_ASSERT(cell < counts_.size(), "HeatMap::increment: cell out of range");
    constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
    // Saturating add; guard the uint64 sum itself against wrap-around for
    // pathologically large `by`.
    if (by >= kMax || static_cast<std::uint64_t>(counts_[cell]) + by > kMax) {
      counts_[cell] = kMax;
    } else {
      counts_[cell] = static_cast<std::uint32_t>(counts_[cell] + by);
    }
  }

  void reset();

  /// Sum of all cells — the "memory traffic volume" of Figure 9.
  std::uint64_t total_accesses() const;

  /// Number of cells with at least one access.
  std::size_t active_cells() const;

  const std::vector<std::uint32_t>& counts() const { return counts_; }

  /// Cell counts as doubles (input to the learning pipeline).
  std::vector<double> as_vector() const;

  /// Same conversion into a caller-owned buffer — the shard scoring path
  /// reuses one row buffer per slot so steady-state pumping allocates
  /// nothing.
  void as_vector_into(std::vector<double>& out) const;

  /// Interval index stamped by the monitoring hardware (which interval of
  /// the run this map covers), and its start time.
  std::uint64_t interval_index = 0;
  SimTime interval_start = 0;

 private:
  std::vector<std::uint32_t> counts_;
};

/// A sequence of heat maps from one monitored run.
using HeatMapTrace = std::vector<HeatMap>;

/// Human-readable one-line summary ("cells=1472 total=83521 active=311 ...").
std::string summarize(const HeatMap& map);

}  // namespace mhm
