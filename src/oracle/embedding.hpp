// Penalty analysis for the constraint embedding (paper Theorems 1 and 2).
//
// Theorem 1 (Existence of Embedding): replacing every constraint-violating
// entry of Q by any U > 2 * sum |q_{r1 r2}| makes the unconstrained QBP
// *exactly* equivalent to the timing-constrained one.
//
// Theorem 2 (Sufficient Condition): any penalty works -- "no matter how
// slightly you raise the values" -- provided the minimizer found is
// timing-feasible; the paper runs its experiments with kPaperPenalty = 50
// to avoid the numerical trouble of huge U.  This module computes the
// provable Theorem 1 bound for an instance, so tests and the penalty
// ablation bench can compare both regimes, and the exact minimum of the
// embedded problem that both theorems speak about.
#pragma once

#include "core/brute_force.hpp"
#include "core/problem.hpp"

namespace qbp {

struct EmbeddingAnalysis {
  /// sum over all r1, r2 of |q_{r1 r2}| for the un-embedded Q
  /// (= beta * sum(A) * sum(B) + alpha * sum(P) for non-negative inputs).
  double abs_sum = 0.0;
  /// The Theorem 1 threshold 2 * abs_sum; any penalty strictly above it is
  /// provably exact.
  double theorem1_threshold = 0.0;
  /// The penalty under analysis.
  double penalty = 0.0;
  /// penalty > theorem1_threshold: equivalence is unconditional.
  bool provably_exact = false;
};

[[nodiscard]] EmbeddingAnalysis analyze_embedding(const PartitionProblem& problem,
                                                  double penalty);

/// A penalty satisfying Theorem 1 for this instance (threshold + 1).
[[nodiscard]] double theorem1_penalty(const PartitionProblem& problem);

/// Exact minimum of the *embedded* problem QBP(Qhat): the penalized value
/// y^T Qhat y over assignments satisfying only C1 (and C3) -- timing enters
/// through the penalty, exactly as the transformed problem of Section 3.2.
/// Enumerates like brute_force_constrained (M^N <= 2^24).
[[nodiscard]] BruteForceResult brute_force_penalized(
    const PartitionProblem& problem, double penalty);

}  // namespace qbp
