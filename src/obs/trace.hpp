#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace mhm::obs {

/// The span ring behind /trace.
///
/// `OBS_SCOPE` (obs/prof.hpp) appends one SpanRecord here when a scope of a
/// stage off the scoring path closes; a record costs one mutex'd ring write
/// and zero allocations. Span names are stage-table names (string
/// literals) — records store the pointer, not a copy.

/// One completed span.
struct SpanRecord {
  std::uint64_t id = 0;         ///< Process-unique, 1-based.
  std::uint64_t parent_id = 0;  ///< 0 = root span of its thread.
  const char* name = "";        ///< Borrowed; literals only.
  std::size_t thread_shard = 0; ///< obs::thread_shard() of the recording thread.
  std::uint64_t start_ns = 0;   ///< Monotonic (steady_clock) nanoseconds.
  std::uint64_t duration_ns = 0;
};

/// Process-wide bounded ring of completed spans; oldest entries are
/// overwritten once `capacity()` is exceeded.
class SpanBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  static SpanBuffer& instance();

  /// Oldest-to-newest copy of the retained records.
  std::vector<SpanRecord> snapshot() const;

  /// Spans recorded since process start (including overwritten ones).
  std::uint64_t total_recorded() const;

  std::size_t capacity() const;
  /// Resize the ring; existing records are dropped (tests).
  void set_capacity(std::size_t capacity);
  void clear();

  /// Internal: append one completed record.
  void record(const SpanRecord& rec);

 private:
  explicit SpanBuffer(std::size_t capacity);

  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;
  std::size_t head_ = 0;        ///< Next write position.
  std::size_t size_ = 0;        ///< Valid records in the ring.
  std::uint64_t total_ = 0;
};

}  // namespace mhm::obs
