// The implicit constraint-embedded cost matrix Q-hat (paper Sections 3-4).
//
// Entry semantics, for r1 = (i1, j1) and r2 = (i2, j2):
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
// Q-hat is never materialized (Section 4.3): entries are generated on
// demand from the CSR connection matrix A, the dense M x M matrix B, the
// diagonal P and the sparse Dc.  `materialize()` exists for tests on tiny
// instances only.
#pragma once

#include <cstdint>
#include <vector>

#include "core/problem.hpp"
#include "sparse/dense.hpp"

namespace qbp {

class QhatMatrix {
 public:
  /// Holds a reference to `problem`; the problem must outlive this object.
  /// `penalty` is the embedded timing-violation cost (the paper uses 50;
  /// Theorem 2 shows any value works as long as the found minimum is
  /// violation-free, Theorem 1 gives a sufficient magnitude).
  QhatMatrix(const PartitionProblem& problem, double penalty);

  [[nodiscard]] double penalty() const noexcept { return penalty_; }
  [[nodiscard]] std::int64_t flat_size() const noexcept {
    return problem_->flat_size();
  }

  /// Single entry q-hat(r1, r2); O(log degree).
  [[nodiscard]] double entry(std::int64_t r1, std::int64_t r2) const;

  /// y^T Q-hat y for the y vector of a complete assignment:
  /// true objective plus penalty * (number of ordered timing-violating
  /// pairs).  O(bundles + constraints), never O((MN)^2).
  [[nodiscard]] double penalized_value(const Assignment& assignment) const;

  /// Number of ordered (j1, j2) pairs whose constraint is violated -- the
  /// difference between penalized_value and the true objective, divided by
  /// the penalty.
  [[nodiscard]] std::int64_t ordered_violations(const Assignment& assignment) const;

  // Move/swap deltas of penalized_value and STEP 3's eta: DeltaEvaluator
  // (core/delta_evaluator.hpp) in penalized mode.

  /// Upper bounds omega_r >= max_{y in S} sum_s q-hat(r, s) y_s of
  /// equation (2); computed once per solve.  Exploits C3: each component
  /// contributes its worst single entry.
  [[nodiscard]] std::vector<double> omega() const;

  /// Count of structurally non-zero entries the sparse representation can
  /// produce (wire blocks + constraint blocks + diagonal); for reporting.
  [[nodiscard]] std::int64_t nominal_nonzeros() const;

  /// Dense Q-hat; quadratic memory -- tests and the Section 3.3 example only.
  [[nodiscard]] Matrix<double> materialize() const;

 private:
  /// True iff placing j1 in i1 and j2 in i2 violates the (j1, j2) timing
  /// constraint in the ordered direction D(i1, i2) > Dc(j1, j2).
  [[nodiscard]] bool violates(PartitionId i1, std::int32_t j1, PartitionId i2,
                              std::int32_t j2) const;

  const PartitionProblem* problem_;
  double penalty_;
};

}  // namespace qbp
