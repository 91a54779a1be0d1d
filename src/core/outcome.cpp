#include "core/outcome.hpp"

#include <utility>

namespace qbp {

Outcome outcome_of(const PartitionProblem& problem, Assignment assignment,
                   double penalty, bool feasible) {
  Outcome outcome;
  outcome.best_penalized = problem.penalized_value(assignment, penalty);
  if (feasible) {
    outcome.best_feasible = assignment;
    outcome.best_feasible_objective = problem.objective(assignment);
    outcome.found_feasible = true;
  }
  outcome.best = std::move(assignment);
  return outcome;
}

}  // namespace qbp
