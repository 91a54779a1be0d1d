// Fixed partition topology: the paper's "II. Descriptions of Partitions".
//
//   - I, the set of M partitions, each with a capacity c_i    -> capacities()
//   - B, the M x M wire-routing cost matrix b_{i1 i2}         -> wire_cost()
//   - D, the M x M routing-delay matrix D(i1, i2)             -> delay()
//
// B and D are independent inputs ("we don't assume any relationship between
// B and D in our formulation"), though the common case -- and the paper's
// experiments -- uses Manhattan distances on a grid of module slots for
// both.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sparse/dense.hpp"

namespace qbp {

using PartitionId = std::int32_t;

/// Interconnection cost metric used when deriving B from slot geometry.
enum class CostKind {
  kUnit,       // b = 1 for distinct partitions: total wire crossings
  kManhattan,  // b = Manhattan distance: total Manhattan wire length
  kQuadratic,  // b = squared Manhattan distance
};

class PartitionTopology {
 public:
  PartitionTopology() = default;

  /// Grid of rows x cols slots (row-major ids); B per `cost_kind`, D equal to
  /// Manhattan distance (the paper's Figure 1 setting: "adjacent partitions
  /// are distance 1 apart").  Capacities are initialized to `capacity` each.
  static PartitionTopology grid(std::int32_t rows, std::int32_t cols,
                                CostKind cost_kind = CostKind::kManhattan,
                                double capacity = 1.0);

  /// Fully custom topology; B and D must be M x M, capacities length M.
  static PartitionTopology custom(Matrix<double> wire_cost, Matrix<double> delay,
                                  std::vector<double> capacities);

  [[nodiscard]] std::int32_t num_partitions() const noexcept {
    return static_cast<std::int32_t>(capacities_.size());
  }

  [[nodiscard]] const Matrix<double>& wire_cost() const noexcept { return b_; }
  [[nodiscard]] const Matrix<double>& delay() const noexcept { return d_; }

  [[nodiscard]] double wire_cost(PartitionId i1, PartitionId i2) const noexcept {
    return b_(i1, i2);
  }
  [[nodiscard]] double delay(PartitionId i1, PartitionId i2) const noexcept {
    return d_(i1, i2);
  }

  [[nodiscard]] const std::vector<double>& capacities() const noexcept {
    return capacities_;
  }
  [[nodiscard]] double capacity(PartitionId i) const noexcept {
    return capacities_[static_cast<std::size_t>(i)];
  }
  void set_capacity(PartitionId i, double capacity) {
    capacities_[static_cast<std::size_t>(i)] = capacity;
  }
  void set_capacities(std::vector<double> capacities);

  [[nodiscard]] double total_capacity() const noexcept;

  /// Grid width for grid-built topologies, 0 for custom ones (the .qp
  /// writer keeps a grid in its compact form).
  [[nodiscard]] std::int32_t grid_cols() const noexcept { return grid_cols_; }

  /// Structural validation (square matrices, non-negative capacities, zero
  /// diagonals).  Empty string when valid.
  [[nodiscard]] std::string validate() const;

 private:
  Matrix<double> b_;
  Matrix<double> d_;
  std::vector<double> capacities_;
  std::int32_t grid_cols_ = 0;  // 0 for custom topologies
};

}  // namespace qbp
