#include "hw/address_trace.hpp"

#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>

#include "common/error.hpp"

namespace mhm::hw {

namespace {

/// Parse one unsigned field (decimal, or hex with 0x prefix). Returns false
/// if `sv` is not a complete valid number.
bool parse_field(std::string_view sv, std::uint64_t* out) {
  int base = 10;
  if (sv.size() > 2 && sv[0] == '0' && (sv[1] == 'x' || sv[1] == 'X')) {
    sv.remove_prefix(2);
    base = 16;
  }
  if (sv.empty()) return false;
  const auto result =
      std::from_chars(sv.data(), sv.data() + sv.size(), *out, base);
  return result.ec == std::errc{} && result.ptr == sv.data() + sv.size();
}

/// Split a line into whitespace-separated tokens (no allocation per token).
std::size_t tokenize(std::string_view line,
                     std::array<std::string_view, 5>& tokens) {
  std::size_t count = 0;
  std::size_t pos = 0;
  while (pos < line.size() && count < tokens.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) {
      ++pos;
    }
    if (pos >= line.size()) break;
    const std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t') ++pos;
    tokens[count++] = line.substr(start, pos - start);
  }
  // Trailing garbage beyond 4 fields counts as a token so we can reject it.
  return count;
}

}  // namespace

AddressTraceStats replay_address_trace(std::istream& in, MemoryBus& bus) {
  AddressTraceStats stats;
  std::string line;
  std::uint64_t line_no = 0;
  bool first = true;

  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = line;
    // Strip trailing CR (windows traces) and leading whitespace.
    if (!sv.empty() && sv.back() == '\r') sv.remove_suffix(1);
    std::size_t begin = 0;
    while (begin < sv.size() && (sv[begin] == ' ' || sv[begin] == '\t')) {
      ++begin;
    }
    sv.remove_prefix(begin);
    if (sv.empty() || sv.front() == '#') continue;

    std::array<std::string_view, 5> tokens;
    const std::size_t n = tokenize(sv, tokens);
    if (n < 2 || n > 4) {
      throw ConfigError("address_trace: line " + std::to_string(line_no) +
                        ": expected 2-4 fields, got " + std::to_string(n));
    }
    AccessBurst burst;
    std::uint64_t time = 0;
    if (!parse_field(tokens[0], &time)) {
      throw ConfigError("address_trace: line " + std::to_string(line_no) +
                        ": bad timestamp '" + std::string(tokens[0]) + "'");
    }
    if (!parse_field(tokens[1], &burst.base)) {
      throw ConfigError("address_trace: line " + std::to_string(line_no) +
                        ": bad address '" + std::string(tokens[1]) + "'");
    }
    burst.time = time;
    burst.size_bytes = 4;
    burst.sweeps = 1;
    if (n >= 3 && !parse_field(tokens[2], &burst.size_bytes)) {
      throw ConfigError("address_trace: line " + std::to_string(line_no) +
                        ": bad size '" + std::string(tokens[2]) + "'");
    }
    if (n == 4 && !parse_field(tokens[3], &burst.sweeps)) {
      throw ConfigError("address_trace: line " + std::to_string(line_no) +
                        ": bad sweep count '" + std::string(tokens[3]) + "'");
    }
    if (burst.size_bytes == 0 || burst.sweeps == 0) {
      throw ConfigError("address_trace: line " + std::to_string(line_no) +
                        ": size and sweeps must be positive");
    }
    if (!first && burst.time < stats.last_time) {
      throw ConfigError("address_trace: line " + std::to_string(line_no) +
                        ": timestamps must be non-decreasing");
    }
    if (first) {
      stats.first_time = burst.time;
      first = false;
    }
    stats.last_time = burst.time;
    ++stats.lines_parsed;
    stats.accesses += burst.total_accesses();
    bus.publish(burst);
  }
  // Time stays where the last burst left it; this only flushes the bus's
  // registry counter.
  bus.advance_time(bus.last_time());
  return stats;
}

AddressTraceStats replay_address_trace_file(const std::string& path,
                                            MemoryBus& bus) {
  std::ifstream in(path);
  if (!in) throw ConfigError("replay_address_trace_file: cannot open " + path);
  return replay_address_trace(in, bus);
}

void write_address_trace(const std::vector<AccessBurst>& bursts,
                         std::ostream& out) {
  out << "# mhm address trace: time_ns address size_bytes sweeps\n";
  char buf[96];
  for (const auto& b : bursts) {
    const int len = std::snprintf(buf, sizeof buf, "%llu 0x%llX %llu %llu\n",
                                  static_cast<unsigned long long>(b.time),
                                  static_cast<unsigned long long>(b.base),
                                  static_cast<unsigned long long>(b.size_bytes),
                                  static_cast<unsigned long long>(b.sweeps));
    out.write(buf, len);
  }
}

}  // namespace mhm::hw
