#include "core/qhat.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace qbp {

QhatMatrix::QhatMatrix(const PartitionProblem& problem, double penalty)
    : problem_(&problem), penalty_(penalty) {
  QBP_CHECK_GT(penalty, 0.0) << "Q-hat penalty must be positive";
}

bool QhatMatrix::violates(PartitionId i1, std::int32_t j1, PartitionId i2,
                          std::int32_t j2) const {
  if (j1 == j2) return false;
  const double bound = problem_->timing().max_delay(j1, j2);
  return problem_->topology().delay(i1, i2) > bound;
}

double QhatMatrix::entry(std::int64_t r1, std::int64_t r2) const {
  const PartitionId i1 = problem_->partition_of(r1);
  const std::int32_t j1 = problem_->component_of(r1);
  const PartitionId i2 = problem_->partition_of(r2);
  const std::int32_t j2 = problem_->component_of(r2);

  if (violates(i1, j1, i2, j2)) return penalty_;
  if (j1 == j2) {
    // Same component: only the diagonal carries cost (the linear term);
    // off-diagonal same-column pairs can never be jointly active under C3.
    return r1 == r2 ? problem_->alpha() * problem_->linear_cost(i1, j1) : 0.0;
  }
  const auto wires = problem_->netlist().connection_matrix().value_or(j1, j2, 0);
  if (wires == 0) return 0.0;
  return problem_->beta() * wires * problem_->topology().wire_cost(i1, i2);
}

std::int64_t QhatMatrix::ordered_violations(const Assignment& assignment) const {
  std::int64_t count = 0;
  problem_->timing().matrix().for_each(
      [&](std::int32_t j1, std::int32_t j2, double bound) {
        const PartitionId p1 = assignment[j1];
        const PartitionId p2 = assignment[j2];
        if (p1 == Assignment::kUnassigned || p2 == Assignment::kUnassigned) return;
        if (problem_->topology().delay(p1, p2) > bound) ++count;
      });
  return count;
}

double QhatMatrix::penalized_value(const Assignment& assignment) const {
  // y^T Qhat y = true objective + penalty for every ordered violating pair
  // - the wire term those violating pairs would otherwise have contributed.
  double value = problem_->objective(assignment);
  const auto& adjacency = problem_->netlist().connection_matrix();
  problem_->timing().matrix().for_each(
      [&](std::int32_t j1, std::int32_t j2, double bound) {
        const PartitionId p1 = assignment[j1];
        const PartitionId p2 = assignment[j2];
        if (p1 == Assignment::kUnassigned || p2 == Assignment::kUnassigned) return;
        if (problem_->topology().delay(p1, p2) > bound) {
          const auto wires = adjacency.value_or(j1, j2, 0);
          value += penalty_ - problem_->beta() * wires *
                                  problem_->topology().wire_cost(p1, p2);
        }
      });
  return value;
}

std::vector<double> QhatMatrix::omega() const {
  const std::int32_t m = problem_->num_partitions();
  const std::int32_t n = problem_->num_components();
  std::vector<double> omega(static_cast<std::size_t>(problem_->flat_size()), 0.0);

  const auto& adjacency = problem_->netlist().connection_matrix();
  const auto& topology = problem_->topology();
  const double beta = problem_->beta();

  // Worst-case wire cost from partition i1 to anywhere.
  std::vector<double> max_b(static_cast<std::size_t>(m), 0.0);
  for (std::int32_t i1 = 0; i1 < m; ++i1) {
    for (std::int32_t i2 = 0; i2 < m; ++i2) {
      max_b[static_cast<std::size_t>(i1)] =
          std::max(max_b[static_cast<std::size_t>(i1)], topology.wire_cost(i1, i2));
    }
  }

  for (std::int32_t j1 = 0; j1 < n; ++j1) {
    const auto neighbors = adjacency.row_indices(j1);
    const auto wires = adjacency.row_values(j1);
    const auto partners = problem_->timing().partners(j1);
    for (PartitionId i1 = 0; i1 < m; ++i1) {
      // Under C3 every other component contributes exactly one entry of its
      // M-block; bound each block's max.  Constrained pairs can hit the
      // penalty; connected pairs can hit beta * a * max_b.
      double bound = problem_->alpha() * problem_->linear_cost(i1, j1);
      std::size_t wire_at = 0;
      std::size_t partner_at = 0;
      while (wire_at < neighbors.size() || partner_at < partners.size()) {
        const std::int32_t next_wire = wire_at < neighbors.size()
                                           ? neighbors[wire_at]
                                           : problem_->num_components();
        const std::int32_t next_partner = partner_at < partners.size()
                                              ? partners[partner_at]
                                              : problem_->num_components();
        if (next_wire < next_partner) {
          bound += beta * wires[wire_at] * max_b[static_cast<std::size_t>(i1)];
          ++wire_at;
        } else if (next_partner < next_wire) {
          bound += penalty_;
          ++partner_at;
        } else {
          bound += std::max(penalty_, beta * wires[wire_at] *
                                          max_b[static_cast<std::size_t>(i1)]);
          ++wire_at;
          ++partner_at;
        }
      }
      omega[static_cast<std::size_t>(problem_->flat_index(i1, j1))] = bound;
    }
  }
  return omega;
}

std::int64_t QhatMatrix::nominal_nonzeros() const {
  const auto m = static_cast<std::int64_t>(problem_->num_partitions());
  const std::int64_t wire_entries =
      static_cast<std::int64_t>(problem_->netlist().connection_matrix().nonzeros()) *
      m * m;
  const std::int64_t constraint_entries =
      static_cast<std::int64_t>(problem_->timing().matrix().nonzeros()) * m * m;
  return wire_entries + constraint_entries + problem_->flat_size();
}

Matrix<double> QhatMatrix::materialize() const {
  const std::int64_t size = problem_->flat_size();
  QBP_CHECK_LE(size, 4096) << "materialize() is for tiny test instances only";
  Matrix<double> dense(static_cast<std::int32_t>(size),
                       static_cast<std::int32_t>(size), 0.0);
  for (std::int64_t r1 = 0; r1 < size; ++r1) {
    for (std::int64_t r2 = 0; r2 < size; ++r2) {
      dense(static_cast<std::int32_t>(r1), static_cast<std::int32_t>(r2)) =
          entry(r1, r2);
    }
  }
  return dense;
}

}  // namespace qbp
