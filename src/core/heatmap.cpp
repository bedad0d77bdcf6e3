#include "core/heatmap.hpp"

#include <numeric>
#include <sstream>

#include "common/error.hpp"

namespace mhm {

void MhmConfig::validate() const {
  if (size == 0) throw ConfigError("MhmConfig: size must be positive");
  if (!is_power_of_two(granularity)) {
    throw ConfigError("MhmConfig: granularity must be a power of two");
  }
  if (interval == 0) throw ConfigError("MhmConfig: interval must be positive");
}

MhmConfig MhmConfig::paper_default() { return MhmConfig{}; }

void HeatMap::reset() {
  std::fill(counts_.begin(), counts_.end(), 0u);
}

std::uint64_t HeatMap::total_accesses() const {
  return std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
}

std::size_t HeatMap::active_cells() const {
  std::size_t n = 0;
  for (auto c : counts_) n += (c != 0);
  return n;
}

std::vector<double> HeatMap::as_vector() const {
  std::vector<double> v;
  as_vector_into(v);
  return v;
}

void HeatMap::as_vector_into(std::vector<double>& out) const {
  out.resize(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = static_cast<double>(counts_[i]);
  }
}

std::string summarize(const HeatMap& map) {
  std::ostringstream os;
  os << "interval=" << map.interval_index << " cells=" << map.cell_count()
     << " total=" << map.total_accesses() << " active=" << map.active_cells();
  return os.str();
}

}  // namespace mhm
