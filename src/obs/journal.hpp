#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/interval_ring.hpp"
#include "obs/obs.hpp"

namespace mhm::obs {

/// Per-interval decision journal.
///
/// Every analyzed interval leaves one DecisionRecord — the projected
/// coordinates, the density, the threshold it was compared against, and (for
/// alarms) the cells that deviated most from the training baseline — so any
/// alarm can be explained *after the fact* without re-running the scenario.
/// With the paper's 10 ms intervals the default capacity retains the most
/// recent ~20 s of decisions.

/// One cell's contribution to a flagged interval.
struct CellContribution {
  std::size_t cell = 0;
  double observed = 0.0;
  double expected = 0.0;  ///< Training mean of the cell.
  double z_score = 0.0;   ///< (observed − expected) / std (std floored).
};

/// The `k` cells of `raw` with the largest |z| against a per-cell training
/// baseline (|z| descending, ties to the lower index) into `out`. Cells are
/// integer counts, so the spread is floored at one count: a never-touched
/// training cell that lights up scores z = observed. O(L).
void rank_cells_by_z(std::span<const double> raw, std::span<const double> mean,
                     std::span<const double> stddev, std::size_t k,
                     std::vector<CellContribution>& out);

/// The full decision context of one analyzed interval.
struct DecisionRecord {
  std::uint64_t interval_index = 0;
  std::uint64_t phase = 0;             ///< Hyperperiod phase of the interval.
  std::vector<double> reduced_coords;  ///< Eigenmemory projection M'.
  double log10_density = 0.0;
  double threshold = 0.0;              ///< θ_p the density was compared to.
  bool alarm = false;
  std::size_t nearest_pattern = 0;     ///< Most responsible GMM component.
  /// Version of the model snapshot that scored this interval: after a hot
  /// model swap the stamp flips at the pickup boundary, so the journal
  /// records the transition.
  std::uint64_t model_version = 0;
  /// Top deviating cells (|z| descending). Filled only for alarms, and only
  /// when the detector carries a per-cell training baseline.
  std::vector<CellContribution> top_cells;
  /// Free-form annotation ("" for ordinary intervals). The retrain loop
  /// stamps the first post-publish record so the journal shows *why* the
  /// version flipped; serialized only when non-empty, so existing journal
  /// consumers see byte-identical lines for unannotated records.
  std::string note;
};

/// The journal as a view of the newest `capacity` entries of the session's
/// IntervalRing. The ring holds each record's verdict fields; the journal
/// keeps only what the ring lacks: a flat capacity × L′ reduced-coordinate
/// column, the alarms' top cells and the sparse notes, all guarded by the
/// ring's mutex. Thread-safe readers.
class DecisionJournal {
 public:
  static constexpr std::size_t kDefaultCapacity = 2048;

  /// `ring` must hold at least `capacity` entries. `phases` is the
  /// hyperperiod-phase modulus, `dims` the expected L′ (a wider projection
  /// re-strides the column), `top_cells` the cells ranked per alarm.
  DecisionJournal(std::shared_ptr<const IntervalRing> ring,
                  std::size_t capacity, std::size_t phases, std::size_t dims,
                  std::size_t top_cells);

  /// Side state of the ring's newest entry; the caller holds the ring's
  /// mutex. For an alarm whose baseline `mean` / `stddev` matches `raw`,
  /// ranks its top cells; a non-empty `note` is moved in. Allocation-free
  /// once the side buffers are warm.
  void record_locked(std::span<const double> reduced,
                     std::span<const double> raw,
                     std::span<const double> mean,
                     std::span<const double> stddev, std::string& note);

  /// Oldest-to-newest copy of the newest `tail` retained records (all of
  /// them by default).
  std::vector<DecisionRecord> snapshot(std::size_t tail = SIZE_MAX) const;

  /// Retained records with `alarm` set, oldest first.
  std::vector<DecisionRecord> alarms() const;

  /// Most recent retained record for `interval_index`, if any.
  std::optional<DecisionRecord> find(std::uint64_t interval_index) const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  /// Intervals recorded since construction (including overwritten ones).
  std::uint64_t total_appended() const;

 private:
  /// The sparse side state of one record: an alarm's top cells, a note.
  struct Extra {
    std::uint64_t seq = 0;
    std::vector<CellContribution> top_cells;
    std::string note;
  };

  /// Records for ring sequences [from, to), oldest first; ring mutex held.
  std::vector<DecisionRecord> records_locked(std::uint64_t from,
                                             std::uint64_t to) const;

  std::shared_ptr<const IntervalRing> ring_;
  std::size_t capacity_;
  std::size_t phases_;
  std::size_t top_cells_;
  std::size_t stride_;
  std::vector<double> coords_;       ///< capacity_ × stride_.
  std::vector<std::uint32_t> dims_;  ///< L′ of each slot.
  /// Circular, in sequence order: live_ entries from head_. Entries older
  /// than the journal are dropped from the front, their buffers reused.
  std::vector<Extra> extras_;
  std::size_t head_ = 0;
  std::size_t live_ = 0;
};

}  // namespace mhm::obs
