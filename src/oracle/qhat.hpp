// The constraint-embedded cost matrix Q-hat of Sections 3.1-3.3, entry by
// entry.  For r1 = (i1, j1) and r2 = (i2, j2):
//
//   q-hat(r1, r2) = PENALTY                          if D(i1,i2) > Dc(j1,j2)
//                 = alpha * p_{i1 j1}                if r1 == r2
//                 = 0                                if j1 == j2, i1 != i2
//                 = beta * a_{j1 j2} * b_{i1 i2}     otherwise
//
// matching the worked example of Section 3.3 (a timing-violating pair's
// entry is the flat penalty 50, *replacing* the wire term; the diagonal
// carries the linear costs p; same-component off-diagonal blocks are zero
// because C3 means they can never be jointly active).
//
// The solver never builds Q-hat (Section 4.3; see core/problem.hpp).  Tests,
// the sparse bench suite and examples/paper_example check its implicit
// forms against these.
#pragma once

#include <cstdint>
#include <vector>

#include "core/problem.hpp"
#include "sparse/dense.hpp"

namespace qbp {

/// Binary y vector of a complete assignment (C3 holds by construction),
/// flattened as r = i + j * M.
[[nodiscard]] std::vector<std::uint8_t> to_y(const PartitionProblem& problem,
                                             const Assignment& assignment);

/// Assignment from a y vector; requires exactly one 1 per component (C3).
[[nodiscard]] Assignment from_y(const PartitionProblem& problem,
                                const std::vector<std::uint8_t>& y);

/// Single entry q-hat(r1, r2) under `penalty`; O(log degree).
[[nodiscard]] double qhat_entry(const PartitionProblem& problem, double penalty,
                                std::int64_t r1, std::int64_t r2);

/// Dense Q-hat; quadratic memory, so tiny instances only (MN <= 4096).
[[nodiscard]] Matrix<double> materialize_qhat(const PartitionProblem& problem,
                                              double penalty);

/// Number of ordered (j1, j2) pairs whose constraint `assignment` violates:
/// the difference between penalized_value and the true objective, divided
/// by the penalty, when the violating pairs carry no wires.
[[nodiscard]] std::int64_t ordered_violations(const PartitionProblem& problem,
                                              const Assignment& assignment);

/// Count of structurally non-zero entries the sparse representation can
/// produce (wire blocks + constraint blocks + diagonal).
[[nodiscard]] std::int64_t nominal_nonzeros(const PartitionProblem& problem);

}  // namespace qbp
