#include "obs/history.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace mhm::obs {
namespace {

void json_num(std::string& out, const char* key, double v, bool comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.9g%s", key, v, comma ? "," : "");
  out += buf;
}

void json_u64(std::string& out, const char* key, std::uint64_t v,
              bool comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%llu%s", key,
                static_cast<unsigned long long>(v), comma ? "," : "");
  out += buf;
}

bool wants(const std::string& series, const char* name) {
  return series == "all" || series == name;
}

HistoryBin bin_of(const IntervalRow& s) {
  HistoryBin b;
  b.first_interval = s.interval;
  b.last_interval = s.interval;
  b.count = 1;
  b.alarms = s.alarm ? 1 : 0;
  b.worst_status = s.status;
  b.score_min = b.score_mean = b.score_max = s.score;
  b.spe_min = b.spe_mean = b.spe_max = s.spe;
  return b;
}

void merge_into(HistoryBin& acc, const HistoryBin& fine) {
  if (acc.count == 0) {
    acc = fine;
    return;
  }
  const double n_acc = static_cast<double>(acc.count);
  const double n_fine = static_cast<double>(fine.count);
  const double n = n_acc + n_fine;
  acc.score_mean = (acc.score_mean * n_acc + fine.score_mean * n_fine) / n;
  acc.spe_mean = (acc.spe_mean * n_acc + fine.spe_mean * n_fine) / n;
  acc.score_min = std::min(acc.score_min, fine.score_min);
  acc.score_max = std::max(acc.score_max, fine.score_max);
  acc.spe_min = std::min(acc.spe_min, fine.spe_min);
  acc.spe_max = std::max(acc.spe_max, fine.spe_max);
  acc.count += fine.count;
  acc.alarms += fine.alarms;
  acc.worst_status = std::max(acc.worst_status, fine.worst_status);
  acc.first_interval = std::min(acc.first_interval, fine.first_interval);
  acc.last_interval = std::max(acc.last_interval, fine.last_interval);
}

}  // namespace

ScoreHistory::ScoreHistory(std::shared_ptr<const IntervalRing> ring,
                           const HistoryOptions& options)
    : ring_(std::move(ring)), options_(options) {
  options_.raw_capacity = std::max<std::size_t>(1, options_.raw_capacity);
  options_.bin_capacity = std::max<std::size_t>(1, options_.bin_capacity);
  options_.fold = std::max<std::size_t>(2, options_.fold);
  tiers_.resize(options_.tiers);
  for (Tier& t : tiers_) t.ring.resize(options_.bin_capacity);
}

void ScoreHistory::fold_locked(const IntervalRow& row) {
  if (!tiers_.empty()) feed_tier(0, bin_of(row));
}

void ScoreHistory::feed_tier(std::size_t t, const HistoryBin& fine) {
  Tier& tier = tiers_[t];
  merge_into(tier.acc, fine);
  if (++tier.acc_fill < options_.fold) return;
  tier.ring[tier.head] = tier.acc;
  tier.head = (tier.head + 1) % tier.ring.size();
  tier.size = std::min(tier.size + 1, tier.ring.size());
  const HistoryBin committed = tier.acc;
  tier.acc = HistoryBin{};
  tier.acc_fill = 0;
  if (t + 1 < tiers_.size()) feed_tier(t + 1, committed);
}

std::vector<HistorySample> ScoreHistory::raw_snapshot() const {
  std::lock_guard<std::mutex> lock(ring_->mutex());
  std::vector<HistorySample> out;
  for (std::uint64_t seq = ring_->first(options_.raw_capacity);
       seq < ring_->total(); ++seq) {
    out.push_back(ring_->at(seq));
  }
  return out;
}

std::vector<HistoryBin> ScoreHistory::tier_snapshot(std::size_t tier) const {
  std::lock_guard<std::mutex> lock(ring_->mutex());
  std::vector<HistoryBin> out;
  if (tier == 0 || tier > tiers_.size()) return out;
  const Tier& t = tiers_[tier - 1];
  out.reserve(t.size);
  const std::size_t start = (t.head + t.ring.size() - t.size) % t.ring.size();
  for (std::size_t i = 0; i < t.size; ++i) {
    out.push_back(t.ring[(start + i) % t.ring.size()]);
  }
  return out;
}

std::uint64_t ScoreHistory::span_at(std::size_t res) const {
  std::uint64_t span = 1;
  for (std::size_t i = 0; i < res; ++i) span *= options_.fold;
  return span;
}

std::uint64_t ScoreHistory::total_appended() const {
  std::lock_guard<std::mutex> lock(ring_->mutex());
  return ring_->total();
}

std::size_t ScoreHistory::memory_bytes() const {
  return tiers_.size() *
         (options_.bin_capacity * sizeof(HistoryBin) + sizeof(Tier));
}

std::string history_json(const ScoreHistory& history, const std::string& series,
                         std::size_t res, std::uint64_t from) {
  std::string out;
  out.reserve(4096);
  out += "{";
  json_u64(out, "res", res);
  json_u64(out, "span_intervals", history.span_at(res));
  json_u64(out, "fold", history.fold());
  json_u64(out, "tiers", history.tiers());
  json_u64(out, "total_appended", history.total_appended());
  out += "\"samples\":[";
  bool first_entry = true;
  if (res == 0) {
    const auto raw = history.raw_snapshot();
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const HistorySample& s = raw[i];
      if (s.interval < from) continue;
      if (!first_entry) out += ",";
      first_entry = false;
      out += "{";
      json_u64(out, "interval", s.interval);
      if (wants(series, "score")) json_num(out, "score", s.score);
      if (wants(series, "spe")) json_num(out, "spe", s.spe);
      if (wants(series, "alarm")) json_u64(out, "alarm", s.alarm ? 1 : 0);
      if (wants(series, "status")) json_u64(out, "status", s.status);
      json_u64(out, "model_version", s.model_version, false);
      out += "}";
    }
  } else {
    const auto bins = history.tier_snapshot(res);
    for (std::size_t i = 0; i < bins.size(); ++i) {
      const HistoryBin& b = bins[i];
      if (b.last_interval < from) continue;
      if (!first_entry) out += ",";
      first_entry = false;
      out += "{";
      json_u64(out, "first", b.first_interval);
      json_u64(out, "last", b.last_interval);
      json_u64(out, "count", b.count);
      if (wants(series, "score")) {
        json_num(out, "score_min", b.score_min);
        json_num(out, "score_mean", b.score_mean);
        json_num(out, "score_max", b.score_max);
      }
      if (wants(series, "spe")) {
        json_num(out, "spe_min", b.spe_min);
        json_num(out, "spe_mean", b.spe_mean);
        json_num(out, "spe_max", b.spe_max);
      }
      if (wants(series, "alarm")) json_u64(out, "alarms", b.alarms);
      json_u64(out, "worst_status", b.worst_status, false);
      out += "}";
    }
  }
  out += "]}";
  return out;
}

}  // namespace mhm::obs
