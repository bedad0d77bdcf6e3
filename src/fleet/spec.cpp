#include "fleet/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace mhm::fleet {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == value.c_str()) {
    throw ConfigError("fleet spec: '" + key + "' wants an integer, got '" +
                      value + "'");
  }
  return v;
}

double parse_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == value.c_str()) {
    throw ConfigError("fleet spec: '" + key + "' wants a number, got '" +
                      value + "'");
  }
  return v;
}

}  // namespace

std::size_t FleetSpec::resolved_shards() const {
  if (shards != 0) return shards;
  const std::size_t by_devices = (devices + 255) / 256;
  return std::clamp<std::size_t>(by_devices, 1, 64);
}

FleetSpec FleetSpec::parse(std::istream& in) {
  FleetSpec spec;
  ArchetypeSpec* arch = nullptr;  // Non-null inside an [archetype.*] section.
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        throw ConfigError("fleet spec line " + std::to_string(line_no) +
                          ": unterminated section header");
      }
      const std::string section = trim(line.substr(1, line.size() - 2));
      const std::string prefix = "archetype.";
      if (section.rfind(prefix, 0) != 0 ||
          section.size() <= prefix.size()) {
        throw ConfigError("fleet spec line " + std::to_string(line_no) +
                          ": unknown section [" + section + "]");
      }
      ArchetypeSpec next;
      next.name = section.substr(prefix.size());
      // Names flow into JSON and Prometheus labels verbatim — keep them to
      // identifier characters so no consumer needs escaping.
      for (char c : next.name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '-') {
          throw ConfigError("fleet spec line " + std::to_string(line_no) +
                            ": archetype name '" + next.name +
                            "' may only use [A-Za-z0-9_-]");
        }
      }
      spec.archetypes.push_back(std::move(next));
      arch = &spec.archetypes.back();
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("fleet spec line " + std::to_string(line_no) +
                        ": expected 'key = value'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));

    if (arch != nullptr) {
      if (key == "weight") {
        arch->weight = parse_double(key, value);
      } else if (key == "jitter") {
        arch->jitter_scale = parse_double(key, value);
      } else if (key == "attack") {
        arch->attack = value == "normal" ? "" : value;
      } else if (key == "trigger") {
        arch->trigger_interval = parse_u64(key, value);
      } else {
        throw ConfigError("fleet spec line " + std::to_string(line_no) +
                          ": unknown archetype key '" + key + "'");
      }
      continue;
    }

    if (key == "devices") {
      spec.devices = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "shards") {
      spec.shards = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "intervals") {
      spec.intervals = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "seed") {
      spec.seed = parse_u64(key, value);
    } else if (key == "top_k") {
      spec.top_k = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "health_refresh") {
      spec.health_refresh = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "incident_gap") {
      spec.incident_gap = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "incident_window") {
      spec.incident_window = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "journal_capacity") {
      spec.journal_capacity = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "health_max_events") {
      spec.health_max_events =
          static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "session_bytes_budget") {
      spec.session_bytes_budget =
          static_cast<std::size_t>(parse_u64(key, value));
    } else {
      throw ConfigError("fleet spec line " + std::to_string(line_no) +
                        ": unknown key '" + key + "'");
    }
  }

  if (spec.devices == 0) throw ConfigError("fleet spec: devices must be > 0");
  if (spec.intervals == 0) {
    throw ConfigError("fleet spec: intervals must be > 0");
  }
  if (spec.top_k == 0) throw ConfigError("fleet spec: top_k must be > 0");
  if (spec.health_refresh == 0) spec.health_refresh = 1;
  if (spec.archetypes.empty()) {
    ArchetypeSpec steady;
    steady.name = "steady";
    spec.archetypes.push_back(std::move(steady));
  }
  double total_weight = 0.0;
  for (const auto& a : spec.archetypes) {
    if (a.weight < 0.0) {
      throw ConfigError("fleet spec: archetype '" + a.name +
                        "' has a negative weight");
    }
    total_weight += a.weight;
  }
  if (total_weight <= 0.0) {
    throw ConfigError("fleet spec: archetype weights sum to zero");
  }
  return spec;
}

FleetSpec FleetSpec::parse_string(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

FleetSpec FleetSpec::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("fleet spec: cannot open '" + path + "'");
  return parse(in);
}

}  // namespace mhm::fleet
