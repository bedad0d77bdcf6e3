#include "obs/trace.hpp"

#include <algorithm>

namespace mhm::obs {

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

}  // namespace mhm::obs
