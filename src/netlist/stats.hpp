// Summary statistics of a netlist, used by bench_runner's table1 suite to
// print the analogue of the paper's Table I and by tests to pin the
// generator's output to its targets.
#pragma once

#include <cstdint>
#include <string>

#include "netlist/netlist.hpp"

namespace qbp {

struct NetlistStats {
  std::string name;
  std::int32_t num_components = 0;
  std::int64_t num_connected_pairs = 0;  // distinct unordered pairs
  std::int64_t total_wires = 0;          // sum of bundle multiplicities
  double total_size = 0.0;
  double min_size = 0.0;
  double max_size = 0.0;
  /// max_size / min_size: the paper notes sizes "ranging about 2 orders of
  /// magnitude in the same circuit".
  double size_ratio = 0.0;
  double avg_degree = 0.0;
  std::int32_t max_degree = 0;
  std::int32_t isolated_components = 0;  // components with no wires
};

[[nodiscard]] NetlistStats compute_stats(const Netlist& netlist);

/// One-line human-readable rendering.
[[nodiscard]] std::string to_string(const NetlistStats& stats);

}  // namespace qbp
