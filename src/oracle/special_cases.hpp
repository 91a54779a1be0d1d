// The paper's Section 2.2 taxonomy as constructors: every classical
// assignment problem is a PartitionProblem with particular settings.
//
//   2.2.1  MCM/TCM re-assignment  = PP(1,0) with the deviation matrix P
//          (see partition/deviation.hpp)
//   2.2.2  Generalized Assignment = PP(1,0), no timing constraints
//          Linear Assignment      = GAP with M = N, unit sizes/capacities
//   2.2.3  Quadratic Assignment   = PP(alpha,beta), M = N, unit
//          sizes/capacities, no timing constraints
//
// These helpers make the reductions executable -- tests cross-check the
// QBP solver against the dedicated LAP/GAP solvers through them, and
// examples/qap_demo builds its instance with make_qap_problem.
#pragma once

#include <span>

#include "core/problem.hpp"

namespace qbp {

/// Quadratic Assignment: `flow(j1, j2)` units of traffic between facilities,
/// `distance` between locations (used as both B and D; no timing
/// constraints).  Flows are symmetrized (f + f^T) when building the
/// netlist, which preserves the objective whenever `distance` is symmetric.
/// M = N, unit sizes and capacities: assignments are permutations.
[[nodiscard]] PartitionProblem make_qap_problem(const Matrix<std::int32_t>& flow,
                                                const Matrix<double>& distance);

/// Linear Assignment as PP(1,0): cost(i, j) of giving task j to agent i,
/// M = N, unit sizes and capacities.
[[nodiscard]] PartitionProblem make_lap_problem(const Matrix<double>& cost);

/// Generalized Assignment as PP(1,0): arbitrary item sizes and agent
/// capacities, no timing constraints.
[[nodiscard]] PartitionProblem make_gap_problem(const Matrix<double>& cost,
                                                std::span<const double> sizes,
                                                std::span<const double> capacities);

}  // namespace qbp
