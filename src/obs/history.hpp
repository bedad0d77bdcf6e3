#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/interval_ring.hpp"

namespace mhm::obs {

/// RRD-style multi-resolution score history.
///
/// One ScoreHistory rides on each scored stream and retains "what did the
/// last N hyperperiods look like" at a fixed memory cost: a raw tier that is
/// the newest `raw_capacity` entries of the session's IntervalRing, plus
/// coarser tiers where every `fold` finer entries collapse into one
/// min/mean/max bin. Folds are O(tiers) worst-case (amortized O(1)); nothing
/// ever allocates after construction, so the fleet preset can afford one per
/// session inside the 64 KB budget.
///
/// Like the P² sketches, the class touches no process-global state, so it
/// stays fully functional under MHM_OBS_DISABLE; callers gate the fold on
/// obs::enabled().

/// One raw-tier entry: a row of the session ring.
using HistorySample = IntervalRow;

/// One folded bin at resolution >= 1: `count` finer entries collapsed.
struct HistoryBin {
  std::uint64_t first_interval = 0;
  std::uint64_t last_interval = 0;
  std::uint32_t count = 0;
  std::uint32_t alarms = 0;
  std::uint8_t worst_status = 0;
  double score_min = 0.0;
  double score_mean = 0.0;
  double score_max = 0.0;
  double spe_min = 0.0;
  double spe_mean = 0.0;
  double spe_max = 0.0;
};

struct HistoryOptions {
  std::size_t raw_capacity = 256;  ///< Resolution-0 ring length.
  std::size_t bin_capacity = 128;  ///< Ring length of each folded tier.
  std::size_t fold = 8;            ///< Finer entries per coarser bin.
  std::size_t tiers = 2;           ///< Folded tiers beyond the raw ring.
};

class ScoreHistory {
 public:
  /// `ring` must hold at least `options.raw_capacity` entries; the tiers
  /// are guarded by its mutex.
  ScoreHistory(std::shared_ptr<const IntervalRing> ring,
               const HistoryOptions& options = HistoryOptions{});

  /// Fold the ring's newest entry `row` into the tiers; the caller holds the
  /// ring's mutex. Folds cascade: every `fold` raw samples commit a tier-1
  /// bin, every `fold` tier-1 bins commit a tier-2 bin, and so on.
  void fold_locked(const IntervalRow& row);

  /// The newest raw_capacity ring entries, oldest first.
  std::vector<HistorySample> raw_snapshot() const;
  /// Bins of folded tier `tier` (1-based: tier 1 spans fold intervals per
  /// bin, tier 2 spans fold² ...), oldest first. Empty for out-of-range.
  std::vector<HistoryBin> tier_snapshot(std::size_t tier) const;

  std::size_t tiers() const { return tiers_.size(); }
  std::size_t fold() const { return options_.fold; }
  /// Intervals spanned by one bin at resolution `res` (fold^res).
  std::uint64_t span_at(std::size_t res) const;
  std::uint64_t total_appended() const;
  /// Fixed resident footprint of the folded tiers (excludes sizeof(*this)
  /// and the ring the raw tier reads).
  std::size_t memory_bytes() const;

 private:
  struct Tier {
    std::vector<HistoryBin> ring;
    std::size_t head = 0;   ///< Next write slot.
    std::size_t size = 0;
    HistoryBin acc;         ///< Partial bin accumulating finer entries.
    std::uint32_t acc_fill = 0;
  };

  /// Feed one committed finer bin into tier `t`'s accumulator; commits and
  /// cascades when the accumulator reaches `fold`.
  void feed_tier(std::size_t t, const HistoryBin& fine);

  std::shared_ptr<const IntervalRing> ring_;
  HistoryOptions options_;
  std::vector<Tier> tiers_;
};

/// JSON object for the /history route: `series` selects which columns are
/// rendered ("score", "spe", "alarm", "status" or "all"), `res` the
/// resolution (0 = raw, 1.. = folded tiers), `from` drops entries whose
/// newest interval predates it (0 keeps everything — a `from` beyond the
/// ring simply yields an empty samples array, not an error). Scores/SPE
/// render as plain decimals with enough digits for plotting; the bundle
/// format (.mhmi) carries the hexfloat truth.
std::string history_json(const ScoreHistory& history, const std::string& series,
                         std::size_t res, std::uint64_t from = 0);

}  // namespace mhm::obs
