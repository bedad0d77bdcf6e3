#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/prof.hpp"

namespace mhm::obs {

namespace {

std::atomic<std::uint64_t> g_next_span_id{1};

/// Innermost open span of the calling thread (0 = none).
thread_local std::uint64_t tl_current_span = 0;

}  // namespace

SpanBuffer::SpanBuffer(std::size_t capacity) : ring_(capacity) {}

SpanBuffer& SpanBuffer::instance() {
  static SpanBuffer* buf =
      new SpanBuffer(kDefaultCapacity);  // Leaked: outlives static dtors.
  return *buf;
}

void SpanBuffer::record(const SpanRecord& rec) {
  std::lock_guard<std::mutex> lk(mu_);
  if (ring_.empty()) return;
  ring_[head_] = rec;
  head_ = (head_ + 1) % ring_.size();
  size_ = std::min(size_ + 1, ring_.size());
  ++total_;
}

std::vector<SpanRecord> SpanBuffer::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SpanRecord> out;
  out.reserve(size_);
  // Oldest record sits at head_ once the ring has wrapped.
  const std::size_t first = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(first + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t SpanBuffer::total_recorded() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_;
}

std::size_t SpanBuffer::capacity() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ring_.size();
}

void SpanBuffer::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lk(mu_);
  ring_.assign(capacity, SpanRecord{});
  head_ = 0;
  size_ = 0;
}

void SpanBuffer::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  head_ = 0;
  size_ = 0;
  total_ = 0;
}

SpanScope::SpanScope(const char* name) : name_(name) {
  if (!enabled()) return;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = tl_current_span;
  tl_current_span = id_;
  pushed_ = prof::sampler_push_frame(name_);
  start_ns_ = steady_ns();
}

SpanScope::~SpanScope() {
  if (id_ == 0) return;  // Was disabled at construction.
  if (pushed_) prof::sampler_pop_frame();
  tl_current_span = parent_;
  SpanRecord rec;
  rec.id = id_;
  rec.parent_id = parent_;
  rec.name = name_;
  rec.thread_shard = thread_shard();
  rec.start_ns = start_ns_;
  rec.duration_ns = steady_ns() - start_ns_;
  // If observability was switched off while the span was open, drop it —
  // the invariant is "no records arrive while disabled".
  if (enabled()) SpanBuffer::instance().record(rec);
}

}  // namespace mhm::obs
