#include "core/brute_force.hpp"

#include <cmath>

#include "util/check.hpp"

namespace qbp {

void enumerate_assignments(std::int32_t num_components,
                           std::int32_t num_partitions,
                           const std::function<void(const Assignment&)>& visit) {
  QBP_CHECK(num_components >= 0 && num_partitions >= 1)
      << "brute force needs a sane shape (" << num_components << " components, "
      << num_partitions << " partitions)";
  const double total = std::pow(num_partitions, num_components);
  QBP_CHECK_LE(total, double(1 << 24))
      << "instance too large for brute force";

  Assignment assignment(num_components, num_partitions);
  for (std::int32_t j = 0; j < num_components; ++j) assignment.set(j, 0);

  while (true) {
    visit(assignment);
    // Odometer increment over base-M digits.
    std::int32_t j = 0;
    while (j < num_components) {
      const PartitionId next = assignment[j] + 1;
      if (next < num_partitions) {
        assignment.set(j, next);
        break;
      }
      assignment.set(j, 0);
      ++j;
    }
    if (j == num_components) break;
  }
}

BruteForceResult brute_force_constrained(const PartitionProblem& problem) {
  BruteForceResult result;
  enumerate_assignments(
      problem.num_components(), problem.num_partitions(),
      [&](const Assignment& assignment) {
        if (!problem.satisfies_capacity(assignment)) return;
        if (!problem.satisfies_timing(assignment)) return;
        ++result.feasible_count;
        const double value = problem.objective(assignment);
        if (!result.found || value < result.value) {
          result.found = true;
          result.value = value;
          result.best = assignment;
        }
      });
  return result;
}

}  // namespace qbp
