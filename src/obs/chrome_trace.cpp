#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/export.hpp"

namespace mhm::obs {

namespace {

/// Microseconds with nanosecond precision — Perfetto accepts fractional ts.
std::string us_from_ns(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}

}  // namespace

std::string chrome_trace_json(const SpanBuffer& buffer) {
  std::vector<SpanRecord> spans = buffer.snapshot();
  // The ring retains spans in completion order; trace viewers want begin
  // order. Sort by (start, id) — id breaks ties deterministically.
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.id < b.id;
            });
  const std::uint64_t epoch = spans.empty() ? 0 : spans.front().start_ns;

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  os << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
        "\"args\":{\"name\":\"mhm\"}}";
  for (const auto& s : spans) {
    os << ",\n{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\"mhm\","
       << "\"ph\":\"X\",\"ts\":" << us_from_ns(s.start_ns - epoch)
       << ",\"dur\":" << us_from_ns(s.duration_ns) << ",\"pid\":1,\"tid\":"
       << s.thread_shard << ",\"args\":{\"id\":" << s.id
       << ",\"parent\":" << s.parent_id << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace mhm::obs
