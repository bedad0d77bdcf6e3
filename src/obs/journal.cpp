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

DecisionJournal::DecisionJournal(std::size_t capacity) : ring_(capacity) {}

void DecisionJournal::append(DecisionRecord record) { append_swap(record); }

void DecisionJournal::append_swap(DecisionRecord& record) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (ring_.empty()) return;
  std::swap(ring_[head_], record);
  head_ = (head_ + 1) % ring_.size();
  size_ = std::min(size_ + 1, ring_.size());
  ++total_;
}

std::vector<DecisionRecord> DecisionJournal::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<DecisionRecord> out;
  out.reserve(size_);
  const std::size_t first = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(first + i) % ring_.size()]);
  }
  return out;
}

std::vector<DecisionRecord> DecisionJournal::alarms() const {
  auto all = snapshot();
  std::vector<DecisionRecord> out;
  for (auto& rec : all) {
    if (rec.alarm) out.push_back(std::move(rec));
  }
  return out;
}

std::optional<DecisionRecord> DecisionJournal::find(
    std::uint64_t interval_index) const {
  const auto all = snapshot();
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    if (it->interval_index == interval_index) return *it;
  }
  return std::nullopt;
}

std::size_t DecisionJournal::capacity() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ring_.size();
}

std::size_t DecisionJournal::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return size_;
}

std::uint64_t DecisionJournal::total_appended() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_;
}

void DecisionJournal::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  head_ = 0;
  size_ = 0;
  total_ = 0;
  for (auto& rec : ring_) rec = DecisionRecord{};
}

}  // namespace mhm::obs
