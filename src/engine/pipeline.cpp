#include "engine/pipeline.hpp"

#include <string>
#include <utility>

#include "core/outcome.hpp"
#include "core/validate.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace qbp::engine {

SolvePipeline::SolvePipeline(const PartitionProblem& problem,
                             PipelineOptions options)
    : original_(problem), options_(std::move(options)) {
  if (options_.presolve.enabled) {
    const bool needs_normalize =
        original_.alpha() != 1.0 || original_.beta() != 1.0;
    reduced_ = needs_normalize
                   ? presolve(original_.normalized(), options_.presolve)
                   : presolve(original_, options_.presolve);
  } else {
    // --presolve=off: no normalization either, so the solve runs on the raw
    // instance exactly as it did before the pipeline existed.
    reduced_ = presolve(original_, options_.presolve);
  }
}

void SolvePipeline::post_solve(SolverResult& result, double penalty) const {
  if (result.best.num_components() !=
      static_cast<std::int32_t>(reduced_.lift.orig_of.size())) {
    return;  // a skipped slot: nothing to lift or audit
  }
  // A solve of the reduced instance and RN's exact optimum both answer in
  // reduced space.
  const bool lifted = reduced() || reduced_.rn_feasible;
  if (lifted) {
    result.best = reduced_.lift.lift(result.best);
    result.best_penalized = original_.penalized_value(result.best, penalty);
    if (result.found_feasible) {
      result.best_feasible = reduced_.lift.lift(result.best_feasible);
      result.best_feasible_objective += reduced_.lift.objective_offset;
    }
    for (double& incumbent : result.history) {
      incumbent += reduced_.lift.objective_offset;
    }
  } else if (result.validated) {
    return;  // the portfolio audited it against an unreduced copy
  }
  if (!result.error.empty() ||
      !options_.portfolio.validate.value_or(validation_enabled())) {
    return;
  }
  audit_result(original_, penalty, result,
               "shadow validation failed for the pipeline's answer (" +
                   result.solver + ")");
}

SolverResult SolvePipeline::rn_result(const Solver& solver) const {
  QBP_CHECK(reduced_.rn_feasible);
  SolverResult result;
  result.solver = std::string(solver.name());
  static_cast<Outcome&>(result) =
      outcome_of(reduced_.problem, reduced_.rn_assignment,
                 solver.penalized_with(), /*feasible=*/true);
  return result;
}

PipelineResult SolvePipeline::run(const Solver& solver,
                                  std::int32_t starts) const {
  const Timer timer;
  const double penalty = solver.penalized_with();
  PipelineResult out;
  out.presolve = reduced_.stats;

  if (reduced_.rn_feasible) {
    // The remainder was solved exactly; running heuristic starts could only
    // tie.  Collapse the portfolio to one synthesized result.
    SolverResult exact = rn_result(solver);
    post_solve(exact, penalty);
    out.portfolio.best = exact;
    out.portfolio.best_start = 0;
    if (options_.portfolio.keep_start_results) {
      out.portfolio.starts.push_back(std::move(exact));
    }
    out.portfolio.starts_run = 1;
    out.portfolio.threads_used = 1;
    if (out.portfolio.best.validated) out.portfolio.starts_validated = 1;
    out.portfolio.seconds = timer.seconds();
    return out;
  }

  const Portfolio portfolio(options_.portfolio);
  out.portfolio = portfolio.run(reduced_.problem, solver, starts);
  post_solve(out.portfolio.best, penalty);
  for (SolverResult& start_result : out.portfolio.starts) {
    post_solve(start_result, penalty);
  }
  return out;
}

SolverResult SolvePipeline::solve_one(const Solver& solver,
                                      const StartPoint& start) const {
  const Timer timer;
  SolverResult result =
      reduced_.rn_feasible
          ? rn_result(solver)
          : solver.solve(reduced_.problem,
                         {reduced_.lift.restrict_to_reduced(start.assignment),
                          start.seed},
                         std::stop_token());
  post_solve(result, solver.penalized_with());
  result.seconds = timer.seconds();
  return result;
}

}  // namespace qbp::engine
