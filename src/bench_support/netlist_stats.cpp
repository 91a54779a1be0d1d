#include "bench_support/netlist_stats.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/strings.hpp"

namespace qbp {

NetlistStats compute_stats(const Netlist& netlist) {
  NetlistStats stats;
  stats.name = netlist.name();
  stats.num_components = netlist.num_components();
  stats.num_connected_pairs = netlist.num_connected_pairs();
  stats.total_wires = netlist.total_wires();
  stats.total_size = netlist.total_size();

  stats.min_size = std::numeric_limits<double>::infinity();
  stats.max_size = 0.0;
  for (const auto& component : netlist.components()) {
    stats.min_size = std::min(stats.min_size, component.size);
    stats.max_size = std::max(stats.max_size, component.size);
  }
  if (stats.num_components == 0) stats.min_size = 0.0;
  stats.size_ratio = stats.min_size > 0.0 ? stats.max_size / stats.min_size : 0.0;

  std::int64_t degree_sum = 0;
  for (ComponentId j = 0; j < stats.num_components; ++j) {
    const std::int32_t deg = netlist.degree(j);
    degree_sum += deg;
    stats.max_degree = std::max(stats.max_degree, deg);
    if (deg == 0) ++stats.isolated_components;
  }
  stats.avg_degree = stats.num_components > 0
                         ? static_cast<double>(degree_sum) / stats.num_components
                         : 0.0;
  return stats;
}

std::string to_string(const NetlistStats& stats) {
  std::ostringstream out;
  out << stats.name << ": N=" << stats.num_components
      << " pairs=" << stats.num_connected_pairs << " wires=" << stats.total_wires
      << " size[" << format_double(stats.min_size, 2) << ", "
      << format_double(stats.max_size, 2) << "]"
      << " (ratio " << format_double(stats.size_ratio, 1) << ")"
      << " avg_deg=" << format_double(stats.avg_degree, 2)
      << " max_deg=" << stats.max_degree;
  return out.str();
}

}  // namespace qbp
