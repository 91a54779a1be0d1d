// The incumbent record every solver reports.
//
// The paper's Theorem 2 certifies a minimizer of y^T Qhat y only when it
// comes out violation-free, so every solver here reports two incumbents:
// the best assignment by penalized value, and the best fully feasible one
// (C1 and C2) with its true objective.  This record holds that pair once:
// BurkardResult and engine::SolverResult derive from it, and the shadow
// validator (core/validate.hpp) audits it.
#pragma once

#include <limits>

#include "core/problem.hpp"

namespace qbp {

struct Outcome {
  /// Best solution by penalized value y^T Qhat y; always set by a solver.
  Assignment best;
  double best_penalized = std::numeric_limits<double>::infinity();

  /// Best fully feasible solution (C1 and C2) and its *true* objective;
  /// only meaningful when found_feasible.
  Assignment best_feasible;
  double best_feasible_objective = 0.0;
  bool found_feasible = false;
};

/// The record of one assignment: `best` is `assignment` with its penalized
/// value under `penalty`, and -- when the caller says the assignment is
/// feasible -- the feasible incumbent is the same assignment with its true
/// objective.  On a feasible assignment the penalized value equals the
/// objective bit for bit (PartitionProblem::penalized_value adds nothing).
[[nodiscard]] Outcome outcome_of(const PartitionProblem& problem,
                                 Assignment assignment, double penalty,
                                 bool feasible);

}  // namespace qbp
