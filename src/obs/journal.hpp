#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace mhm::obs {

/// Per-interval decision journal.
///
/// The detector appends one DecisionRecord per analyzed interval — the
/// projected coordinates, the density, the threshold it was compared
/// against, and (for alarms) the cells that deviated most from the training
/// baseline — so any alarm can be explained *after the fact* without
/// re-running the scenario. Bounded ring buffer: with the paper's 10 ms
/// intervals the default capacity retains the most recent ~20 s of
/// decisions.

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

/// Thread-safe bounded ring of DecisionRecords (oldest overwritten).
class DecisionJournal {
 public:
  static constexpr std::size_t kDefaultCapacity = 2048;

  explicit DecisionJournal(std::size_t capacity = kDefaultCapacity);

  /// No-op while observability is disabled.
  void append(DecisionRecord record);

  /// Swap-based append for the per-interval hot path: `record` receives the
  /// evicted slot's buffers, so a caller that refills the same record next
  /// interval allocates nothing in steady state. No-op while disabled.
  void append_swap(DecisionRecord& record);

  /// Oldest-to-newest copy of the retained records.
  std::vector<DecisionRecord> snapshot() const;

  /// Retained records with `alarm` set, oldest first.
  std::vector<DecisionRecord> alarms() const;

  /// Most recent retained record for `interval_index`, if any.
  std::optional<DecisionRecord> find(std::uint64_t interval_index) const;

  std::size_t capacity() const;
  std::size_t size() const;
  /// Appends since construction/clear (including overwritten records).
  std::uint64_t total_appended() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<DecisionRecord> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace mhm::obs
