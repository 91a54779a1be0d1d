#include "oracle/qhat.hpp"

#include "util/check.hpp"

namespace qbp {

std::vector<std::uint8_t> to_y(const PartitionProblem& problem,
                               const Assignment& assignment) {
  QBP_CHECK_EQ(assignment.num_components(), problem.num_components());
  QBP_CHECK(assignment.is_complete());
  std::vector<std::uint8_t> y(static_cast<std::size_t>(problem.flat_size()), 0);
  for (std::int32_t j = 0; j < problem.num_components(); ++j) {
    y[static_cast<std::size_t>(problem.flat_index(assignment[j], j))] = 1;
  }
  return y;
}

Assignment from_y(const PartitionProblem& problem,
                  const std::vector<std::uint8_t>& y) {
  QBP_CHECK_EQ(static_cast<std::int64_t>(y.size()), problem.flat_size());
  Assignment assignment(problem.num_components(), problem.num_partitions());
  for (std::int64_t r = 0; r < problem.flat_size(); ++r) {
    if (y[static_cast<std::size_t>(r)] != 0) {
      QBP_CHECK(assignment[problem.component_of(r)] == Assignment::kUnassigned)
          << "y has more than one 1 in a component column (violates C3)";
      assignment.set(problem.component_of(r), problem.partition_of(r));
    }
  }
  QBP_CHECK(assignment.is_complete())
      << "y misses a component (violates C3)";
  return assignment;
}

double qhat_entry(const PartitionProblem& problem, double penalty,
                  std::int64_t r1, std::int64_t r2) {
  const PartitionId i1 = problem.partition_of(r1);
  const std::int32_t j1 = problem.component_of(r1);
  const PartitionId i2 = problem.partition_of(r2);
  const std::int32_t j2 = problem.component_of(r2);

  // The ordered pair violates its constraint: D(i1, i2) > Dc(j1, j2).
  if (j1 != j2 &&
      problem.topology().delay(i1, i2) > problem.timing().max_delay(j1, j2)) {
    return penalty;
  }
  if (j1 == j2) {
    // Same component: only the diagonal carries cost (the linear term);
    // off-diagonal same-column pairs can never be jointly active under C3.
    return r1 == r2 ? problem.alpha() * problem.linear_cost(i1, j1) : 0.0;
  }
  const auto wires = problem.netlist().connection_matrix().value_or(j1, j2, 0);
  if (wires == 0) return 0.0;
  return problem.beta() * wires * problem.topology().wire_cost(i1, i2);
}

Matrix<double> materialize_qhat(const PartitionProblem& problem,
                                double penalty) {
  QBP_CHECK_GT(penalty, 0.0) << "Q-hat penalty must be positive";
  const std::int64_t size = problem.flat_size();
  QBP_CHECK_LE(size, 4096) << "materialize_qhat() is for tiny instances only";
  Matrix<double> dense(static_cast<std::int32_t>(size),
                       static_cast<std::int32_t>(size), 0.0);
  for (std::int64_t r1 = 0; r1 < size; ++r1) {
    for (std::int64_t r2 = 0; r2 < size; ++r2) {
      dense(static_cast<std::int32_t>(r1), static_cast<std::int32_t>(r2)) =
          qhat_entry(problem, penalty, r1, r2);
    }
  }
  return dense;
}

std::int64_t ordered_violations(const PartitionProblem& problem,
                                const Assignment& assignment) {
  std::int64_t count = 0;
  problem.timing().matrix().for_each(
      [&](std::int32_t j1, std::int32_t j2, double bound) {
        const PartitionId p1 = assignment[j1];
        const PartitionId p2 = assignment[j2];
        if (p1 == Assignment::kUnassigned || p2 == Assignment::kUnassigned) return;
        if (problem.topology().delay(p1, p2) > bound) ++count;
      });
  return count;
}

std::int64_t nominal_nonzeros(const PartitionProblem& problem) {
  const auto m = static_cast<std::int64_t>(problem.num_partitions());
  const std::int64_t wire_entries =
      static_cast<std::int64_t>(problem.netlist().connection_matrix().nonzeros()) *
      m * m;
  const std::int64_t constraint_entries =
      static_cast<std::int64_t>(problem.timing().matrix().nonzeros()) * m * m;
  return wire_entries + constraint_entries + problem.flat_size();
}

}  // namespace qbp
