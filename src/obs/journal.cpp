#include "obs/journal.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace mhm::obs {

void rank_cells_by_z(std::span<const double> raw, std::span<const double> mean,
                     std::span<const double> stddev, std::size_t k,
                     std::vector<CellContribution>& out) {
  out.clear();
  const std::size_t keep = std::min(k, raw.size());
  if (keep == 0) return;
  out.reserve(keep);
  // `out` is the k-slot buffer, held sorted by |z| descending. Cells arrive
  // in ascending index order, so a new cell goes behind every equal |z|
  // already kept (ties to the lower index) and displaces the last slot only
  // when strictly larger.
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const double z = (raw[i] - mean[i]) / std::max(stddev[i], 1.0);
    const double az = std::abs(z);
    if (out.size() == keep) {
      if (!(az > std::abs(out.back().z_score))) continue;
      out.pop_back();
    }
    auto pos = out.end();
    while (pos != out.begin() && az > std::abs((pos - 1)->z_score)) --pos;
    out.insert(pos, CellContribution{.cell = i,
                                     .observed = raw[i],
                                     .expected = mean[i],
                                     .z_score = z});
  }
}

DecisionJournal::DecisionJournal(std::shared_ptr<const IntervalRing> ring,
                                 std::size_t capacity, std::size_t phases,
                                 std::size_t dims, std::size_t top_cells)
    : ring_(std::move(ring)),
      capacity_(std::max<std::size_t>(1, capacity)),
      phases_(std::max<std::size_t>(1, phases)),
      top_cells_(top_cells),
      stride_(dims),
      coords_(capacity_ * dims),
      dims_(capacity_) {}

void DecisionJournal::record_locked(std::span<const double> reduced,
                                    std::span<const double> raw,
                                    std::span<const double> mean,
                                    std::span<const double> stddev,
                                    std::string& note) {
  const std::uint64_t seq = ring_->total() - 1;
  const std::uint64_t first = ring_->first(capacity_);
  if (reduced.size() > stride_) {  // A hot swap to a wider projection.
    std::vector<double> wider(capacity_ * reduced.size());
    for (std::size_t s = 0; s < capacity_; ++s) {
      std::copy_n(coords_.data() + s * stride_, dims_[s],
                  wider.data() + s * reduced.size());
    }
    coords_ = std::move(wider);
    stride_ = reduced.size();
  }
  const std::size_t slot = seq % capacity_;
  std::copy(reduced.begin(), reduced.end(), coords_.data() + slot * stride_);
  dims_[slot] = static_cast<std::uint32_t>(reduced.size());

  const bool rank =
      ring_->at(seq).alarm && top_cells_ > 0 && mean.size() == raw.size();
  if (!rank && note.empty()) return;
  while (live_ > 0 && extras_[head_].seq < first) {
    head_ = (head_ + 1) % extras_.size();
    --live_;
  }
  if (live_ == extras_.size()) {  // Full: unroll, then grow.
    std::rotate(extras_.begin(), extras_.begin() + head_, extras_.end());
    head_ = 0;
    extras_.emplace_back();
  }
  Extra& extra = extras_[(head_ + live_++) % extras_.size()];
  extra.seq = seq;
  extra.top_cells.clear();
  if (rank) rank_cells_by_z(raw, mean, stddev, top_cells_, extra.top_cells);
  extra.note = std::move(note);
}

std::vector<DecisionRecord> DecisionJournal::records_locked(
    std::uint64_t from, std::uint64_t to) const {
  std::vector<DecisionRecord> out;
  out.reserve(to - from);
  std::size_t next = 0;  // Into the live extras.
  for (std::uint64_t seq = from; seq < to; ++seq) {
    const IntervalRow& row = ring_->at(seq);
    const double* coords = coords_.data() + seq % capacity_ * stride_;
    DecisionRecord& rec = out.emplace_back();
    rec.interval_index = row.interval;
    rec.phase = row.interval % phases_;
    rec.reduced_coords.assign(coords, coords + dims_[seq % capacity_]);
    rec.log10_density = row.score;
    rec.threshold = row.threshold;
    rec.alarm = row.alarm;
    rec.nearest_pattern = row.pattern;
    rec.model_version = row.model_version;
    for (; next < live_; ++next) {
      const Extra& e = extras_[(head_ + next) % extras_.size()];
      if (e.seq > seq) break;
      if (e.seq < seq) continue;
      rec.top_cells = e.top_cells;
      rec.note = e.note;
    }
  }
  return out;
}

std::vector<DecisionRecord> DecisionJournal::snapshot(std::size_t tail) const {
  std::lock_guard<std::mutex> lk(ring_->mutex());
  return records_locked(ring_->first(std::min(capacity_, tail)),
                        ring_->total());
}

std::vector<DecisionRecord> DecisionJournal::alarms() const {
  auto all = snapshot();
  std::erase_if(all, [](const DecisionRecord& rec) { return !rec.alarm; });
  return all;
}

std::optional<DecisionRecord> DecisionJournal::find(
    std::uint64_t interval_index) const {
  auto all = snapshot();
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    if (it->interval_index == interval_index) return std::move(*it);
  }
  return std::nullopt;
}

std::size_t DecisionJournal::size() const {
  std::lock_guard<std::mutex> lk(ring_->mutex());
  return static_cast<std::size_t>(ring_->total() - ring_->first(capacity_));
}

std::uint64_t DecisionJournal::total_appended() const {
  std::lock_guard<std::mutex> lk(ring_->mutex());
  return ring_->total();
}

}  // namespace mhm::obs
