#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sstream>

namespace mhm::obs {

namespace {

std::string prometheus_name(const std::string& dotted) {
  std::string out = "mhm_";
  for (char c : dotted) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// JSON numbers may not be Inf/NaN; quote them.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "\"" + fmt_double(v) + "\"";
  return fmt_double(v);
}

}  // namespace

std::string fmt_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) {
    out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                          sizeof buf - 1));
  }
}

std::string prometheus_text(const Registry& registry) {
  std::ostringstream os;
  for (const auto& m : registry.snapshot()) {
    const std::string name = prometheus_name(m.name);
    if (!m.help.empty()) os << "# HELP " << name << " " << m.help << "\n";
    switch (m.type) {
      case MetricSnapshot::Type::kCounter:
        os << "# TYPE " << name << " counter\n";
        os << name << " " << fmt_double(m.value) << "\n";
        break;
      case MetricSnapshot::Type::kGauge:
        os << "# TYPE " << name << " gauge\n";
        os << name << " " << fmt_double(m.value) << "\n";
        break;
      case MetricSnapshot::Type::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < m.bucket_counts.size(); ++b) {
          cumulative += m.bucket_counts[b];
          const std::string le = b < m.upper_bounds.size()
                                     ? fmt_double(m.upper_bounds[b])
                                     : "+Inf";
          os << name << "_bucket{le=\"" << le << "\"} " << cumulative << "\n";
        }
        os << name << "_sum " << fmt_double(m.sum) << "\n";
        os << name << "_count " << m.count << "\n";
        break;
      }
    }
  }
  return os.str();
}

void append_prometheus_gauge(std::string& out, const std::string& name,
                             const std::string& help, double value) {
  const std::string prom = prometheus_name(name);
  out += "# HELP " + prom + " " + help + "\n# TYPE " + prom + " gauge\n" +
         prom + " " + fmt_double(value) + "\n";
}

std::string metrics_json_lines(const Registry& registry) {
  std::ostringstream os;
  for (const auto& m : registry.snapshot()) {
    os << "{\"name\":\"" << json_escape(m.name) << "\"";
    switch (m.type) {
      case MetricSnapshot::Type::kCounter:
        os << ",\"type\":\"counter\",\"value\":" << json_number(m.value);
        break;
      case MetricSnapshot::Type::kGauge:
        os << ",\"type\":\"gauge\",\"value\":" << json_number(m.value);
        break;
      case MetricSnapshot::Type::kHistogram:
        os << ",\"type\":\"histogram\",\"count\":" << m.count
           << ",\"sum\":" << json_number(m.sum) << ",\"buckets\":[";
        for (std::size_t b = 0; b < m.bucket_counts.size(); ++b) {
          if (b > 0) os << ",";
          os << "{\"le\":"
             << (b < m.upper_bounds.size()
                     ? json_number(m.upper_bounds[b])
                     : std::string("\"+Inf\""))
             << ",\"count\":" << m.bucket_counts[b] << "}";
        }
        os << "]";
        break;
    }
    os << "}\n";
  }
  return os.str();
}

std::string decision_json(const DecisionRecord& r) {
  std::ostringstream os;
  os << "{\"interval\":" << r.interval_index << ",\"phase\":" << r.phase
     << ",\"log10_density\":" << json_number(r.log10_density)
     << ",\"threshold\":" << json_number(r.threshold)
     << ",\"alarm\":" << (r.alarm ? "true" : "false")
     << ",\"nearest_pattern\":" << r.nearest_pattern
     << ",\"model_version\":" << r.model_version << ",\"reduced\":[";
  for (std::size_t i = 0; i < r.reduced_coords.size(); ++i) {
    if (i > 0) os << ",";
    os << json_number(r.reduced_coords[i]);
  }
  os << "],\"top_cells\":[";
  for (std::size_t i = 0; i < r.top_cells.size(); ++i) {
    const auto& c = r.top_cells[i];
    if (i > 0) os << ",";
    os << "{\"cell\":" << c.cell << ",\"observed\":" << json_number(c.observed)
       << ",\"expected\":" << json_number(c.expected)
       << ",\"z\":" << json_number(c.z_score) << "}";
  }
  os << "]";
  if (!r.note.empty()) {
    os << ",\"note\":\"" << json_escape(r.note) << "\"";
  }
  os << "}";
  return os.str();
}

std::string journal_json_lines(const DecisionJournal& journal) {
  std::ostringstream os;
  for (const auto& rec : journal.snapshot()) {
    os << decision_json(rec) << "\n";
  }
  return os.str();
}

}  // namespace mhm::obs
