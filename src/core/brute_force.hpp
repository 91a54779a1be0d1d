// Exact exhaustive solver for tiny instances: presolve's RN rule solves a
// remainder of at most a few free components with it, and it is the test
// oracle behind the heuristics' quality checks.  Enumerates all M^N
// complete assignments; guarded to stay within a work budget.  The
// embedded problem's counterpart, brute_force_penalized, is an oracle form
// (oracle/embedding.hpp).
#pragma once

#include <cstdint>
#include <functional>

#include "core/problem.hpp"

namespace qbp {

struct BruteForceResult {
  Assignment best;
  double value = 0.0;
  /// False when no assignment satisfies the constraints (or none exists
  /// within the enumeration budget, which asserts instead).
  bool found = false;
  /// Assignments satisfying the constraint set that was enforced.
  std::int64_t feasible_count = 0;
};

/// Exact minimum of the *constrained* problem: the true objective over
/// assignments satisfying C1, C2 (and C3 implicitly).
[[nodiscard]] BruteForceResult brute_force_constrained(
    const PartitionProblem& problem);

/// Exhaustively enumerate complete assignments, calling `visit` on each.
/// Asserts M^N <= 2^24.
void enumerate_assignments(std::int32_t num_components,
                           std::int32_t num_partitions,
                           const std::function<void(const Assignment&)>& visit);

}  // namespace qbp
