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
#include <span>
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

  // Move/swap deltas of penalized_value: DeltaEvaluator
  // (core/delta_evaluator.hpp) in penalized mode.

  /// STEP 3 gather: eta[s] = sum_r q-hat(r, s) * u_r for a complete
  /// assignment u; `eta` must have flat_size() entries.
  /// O((nnz(A) + nnz(Dc)) * M) via the sparse representation.
  /// `threads > 1` gathers columns in parallel through util/parallel --
  /// each component's column is written by exactly one chunk, so the
  /// result is bit-identical at every thread count.  Equal to eta_sums
  /// followed by add_diagonal.
  void eta(const Assignment& u, std::span<double> eta,
           std::int32_t threads = 1) const;

  /// The STEP 3 gather split so that an iteration pays only for what
  /// moved.  eta_sums: the wire and penalty sums of the gather, everything
  /// but the alpha * p diagonal, for a complete u (same cost and threading
  /// as eta()).  patch_eta_sums: turn `sums`, the eta_sums of `from`, into
  /// those of `to` (both complete) -- each component whose partition
  /// differs moves its wire and penalty terms in the columns of its wire
  /// neighbors and timing partners, O(N) plus O((deg_A + deg_Dc) * M) per
  /// mover; bit-identical to a fresh eta_sums on integer wires, B, D and
  /// penalty.
  /// add_diagonal: eta = sums plus the alpha * p diagonal of u.
  void eta_sums(const Assignment& u, std::span<double> sums,
                std::int32_t threads = 1) const;
  void patch_eta_sums(const Assignment& from, const Assignment& to,
                      std::span<double> sums) const;
  void add_diagonal(const Assignment& u, std::span<const double> sums,
                    std::span<double> eta) const;

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
  /// Add `sign` times the penalty terms partner j1 at partition `from`
  /// contributes to an M-entry column of eta_sums: where D(from, i2) >
  /// `bound` the flat penalty replaces the wire term beta * a * B(from, i2).
  void add_penalty_terms(PartitionId from, double bound, std::int32_t wire,
                         double sign, double* column) const;

  const PartitionProblem* problem_;
  double penalty_;
};

}  // namespace qbp
