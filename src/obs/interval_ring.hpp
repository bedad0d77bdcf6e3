#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace mhm::obs {

/// One scored interval as the session ring stores it (48 bytes).
struct IntervalRow {
  std::uint64_t interval = 0;
  double score = 0.0;         ///< log10 Pr(M') from the verdict.
  double spe = 0.0;           ///< PCA squared prediction error.
  double threshold = 0.0;     ///< θ_p the score was compared against.
  bool alarm = false;
  std::uint8_t status = 0;    ///< ModelHealthStatus after it (0 = OK).
  std::uint32_t pattern = 0;  ///< Nearest GMM component.
  std::uint64_t model_version = 0;
};
static_assert(sizeof(IntervalRow) == 48, "the ring's per-interval cost");

/// The one per-session store of scored intervals, which
/// StreamObserver::record writes once per interval. The decision journal,
/// the score history's raw tier, the incident window and the model-health
/// sparkline are views over it that read its newest entries at read time.
/// Entries are addressed by sequence number (0 for the first push); the
/// newest min(total, capacity) are retained.
///
/// mutex() guards the ring and the side state its views keep beside it (the
/// journal's coordinates, the history's folded tiers); every other member
/// requires it held.
class IntervalRing {
 public:
  explicit IntervalRing(std::size_t capacity)
      : rows_(std::max<std::size_t>(1, capacity)) {}

  std::mutex& mutex() const { return mu_; }
  std::uint64_t total() const { return total_; }
  /// Sequence number of the oldest of the newest `n` entries pushed.
  std::uint64_t first(std::size_t n) const {
    return total_ - std::min<std::uint64_t>(total_, n);
  }
  void push(const IntervalRow& row) { rows_[total_++ % rows_.size()] = row; }
  /// Entry `seq`, which must be retained.
  const IntervalRow& at(std::uint64_t seq) const {
    return rows_[seq % rows_.size()];
  }

  /// Grow to at least `capacity` entries, keeping every retained one.
  void reserve(std::size_t capacity) {
    if (capacity <= rows_.size()) return;
    std::vector<IntervalRow> grown(capacity);
    for (std::uint64_t seq = first(rows_.size()); seq < total_; ++seq) {
      grown[seq % capacity] = at(seq);
    }
    rows_ = std::move(grown);
  }

 private:
  mutable std::mutex mu_;
  std::vector<IntervalRow> rows_;
  std::uint64_t total_ = 0;
};

}  // namespace mhm::obs
