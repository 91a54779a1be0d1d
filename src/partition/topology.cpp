#include "partition/topology.hpp"

#include <cmath>
#include <sstream>

#include "util/check.hpp"

namespace qbp {

PartitionTopology PartitionTopology::grid(std::int32_t rows, std::int32_t cols,
                                          CostKind cost_kind, double capacity) {
  QBP_CHECK(rows >= 1 && cols >= 1)
      << "grid topology needs at least a 1x1 grid";
  const std::int32_t m = rows * cols;
  PartitionTopology topo;
  topo.grid_cols_ = cols;
  topo.capacities_.assign(static_cast<std::size_t>(m), capacity);
  topo.b_ = Matrix<double>(m, m, 0.0);
  topo.d_ = Matrix<double>(m, m, 0.0);
  for (std::int32_t i1 = 0; i1 < m; ++i1) {
    for (std::int32_t i2 = 0; i2 < m; ++i2) {
      const double dist = std::abs(i1 % cols - i2 % cols) +
                          std::abs(i1 / cols - i2 / cols);
      topo.d_(i1, i2) = dist;
      switch (cost_kind) {
        case CostKind::kUnit: topo.b_(i1, i2) = i1 == i2 ? 0.0 : 1.0; break;
        case CostKind::kManhattan: topo.b_(i1, i2) = dist; break;
        case CostKind::kQuadratic: topo.b_(i1, i2) = dist * dist; break;
      }
    }
  }
  return topo;
}

PartitionTopology PartitionTopology::custom(Matrix<double> wire_cost,
                                            Matrix<double> delay,
                                            std::vector<double> capacities) {
  const auto m = static_cast<std::int32_t>(capacities.size());
  QBP_CHECK(wire_cost.rows() == m && wire_cost.cols() == m)
      << "wire-cost matrix must be " << m << " x " << m;
  QBP_CHECK(delay.rows() == m && delay.cols() == m)
      << "delay matrix must be " << m << " x " << m;
  (void)m;
  PartitionTopology topo;
  topo.b_ = std::move(wire_cost);
  topo.d_ = std::move(delay);
  topo.capacities_ = std::move(capacities);
  topo.grid_cols_ = 0;
  return topo;
}

void PartitionTopology::set_capacities(std::vector<double> capacities) {
  QBP_CHECK_EQ(static_cast<std::int32_t>(capacities.size()), num_partitions());
  capacities_ = std::move(capacities);
}

double PartitionTopology::total_capacity() const noexcept {
  double total = 0.0;
  for (double c : capacities_) total += c;
  return total;
}

std::string PartitionTopology::validate() const {
  const std::int32_t m = num_partitions();
  if (b_.rows() != m || b_.cols() != m) return "wire-cost matrix B is not M x M";
  if (d_.rows() != m || d_.cols() != m) return "delay matrix D is not M x M";
  for (std::int32_t i = 0; i < m; ++i) {
    if (std::isnan(capacities_[static_cast<std::size_t>(i)])) {
      std::ostringstream out;
      out << "partition " << i << " has a NaN capacity";
      return out.str();
    }
    if (capacities_[static_cast<std::size_t>(i)] < 0.0) {
      std::ostringstream out;
      out << "partition " << i << " has negative capacity";
      return out.str();
    }
    if (b_(i, i) != 0.0) {
      std::ostringstream out;
      out << "B(" << i << ", " << i << ") must be zero (intra-partition wires are free)";
      return out.str();
    }
    if (d_(i, i) != 0.0) {
      std::ostringstream out;
      out << "D(" << i << ", " << i << ") must be zero";
      return out.str();
    }
    for (std::int32_t i2 = 0; i2 < m; ++i2) {
      // NaN compares false against everything: it would pass the sign
      // checks, never break a timing bound and break every sort by delay.
      if (std::isnan(b_(i, i2)) || std::isnan(d_(i, i2))) {
        std::ostringstream out;
        out << (std::isnan(b_(i, i2)) ? "B(" : "D(") << i << ", " << i2
            << ") is NaN";
        return out.str();
      }
      if (b_(i, i2) < 0.0) return "B has a negative entry";
      if (d_(i, i2) < 0.0) return "D has a negative entry";
    }
  }
  return {};
}

}  // namespace qbp
