#include "core/outcome.hpp"

#include <utility>

#include "core/qhat.hpp"

namespace qbp {

Outcome outcome_of(const PartitionProblem& problem, Assignment assignment,
                   double penalty, bool feasible) {
  Outcome outcome;
  outcome.best_penalized =
      QhatMatrix(problem, penalty).penalized_value(assignment);
  if (feasible) {
    outcome.best_feasible = assignment;
    outcome.best_feasible_objective = problem.objective(assignment);
    outcome.found_feasible = true;
  }
  outcome.best = std::move(assignment);
  return outcome;
}

}  // namespace qbp
