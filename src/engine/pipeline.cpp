#include "engine/pipeline.hpp"

#include <string>
#include <utility>

#include "core/qhat.hpp"
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

void SolvePipeline::lift_result(SolverResult& result, double penalty) const {
  if (result.best.num_components() !=
      static_cast<std::int32_t>(reduced_.lift.orig_of.size())) {
    return;  // skipped/errored slot: nothing to lift
  }
  result.best = reduced_.lift.lift(result.best);
  result.best_penalized =
      QhatMatrix(original_, penalty).penalized_value(result.best);
  if (result.found_feasible) {
    result.best_feasible = reduced_.lift.lift(result.best_feasible);
    result.best_feasible_objective += reduced_.lift.objective_offset;
  }
  for (double& incumbent : result.history) {
    incumbent += reduced_.lift.objective_offset;
  }
}

void SolvePipeline::validate_lifted(const SolverResult& result,
                                    double penalty) const {
  const bool validate =
      options_.portfolio.validate.value_or(validation_enabled());
  if (!validate) return;
  if (result.best.num_components() != original_.num_components()) return;
  ValidateOptions validate_options;
  validate_options.penalty = penalty;
  ReportedOutcome outcome;
  outcome.best = &result.best;
  outcome.best_penalized = result.best_penalized;
  if (result.found_feasible) {
    outcome.best_feasible = &result.best_feasible;
    outcome.best_feasible_objective = result.best_feasible_objective;
  }
  enforce(validate_outcome(original_, outcome, validate_options),
          "pipeline.lift");
}

SolverResult SolvePipeline::rn_result(const Solver& solver) const {
  QBP_CHECK(reduced_.rn_feasible);
  SolverResult result;
  result.solver = std::string(solver.name());
  result.best = reduced_.lift.lift(reduced_.rn_assignment);
  result.best_penalized =
      QhatMatrix(original_, solver.penalized_with()).penalized_value(result.best);
  result.best_feasible = result.best;
  result.best_feasible_objective =
      reduced_.rn_objective + reduced_.lift.objective_offset;
  result.found_feasible = true;
  return result;
}

PipelineResult SolvePipeline::run(const Solver& solver,
                                  std::int32_t starts) const {
  const Timer timer;
  PipelineResult out;
  out.presolve = reduced_.stats;
  out.reduced = reduced();

  if (reduced_.rn_feasible) {
    // The remainder was solved exactly; running heuristic starts could only
    // tie.  Collapse the portfolio to one synthesized result.
    out.rn_exact = true;
    SolverResult exact = rn_result(solver);
    validate_lifted(exact, solver.penalized_with());
    exact.validated =
        options_.portfolio.validate.value_or(validation_enabled());
    out.portfolio.best = exact;
    out.portfolio.best_start = 0;
    if (options_.portfolio.keep_start_results) {
      out.portfolio.starts.push_back(std::move(exact));
    }
    out.portfolio.starts_run = 1;
    out.portfolio.threads_used = 1;
    if (out.portfolio.best.validated) out.portfolio.starts_validated = 1;
    out.portfolio.seconds = timer.seconds();
    out.seconds = timer.seconds();
    return out;
  }

  const Portfolio portfolio(options_.portfolio);
  out.portfolio = portfolio.run(reduced_.problem, solver, starts);
  if (reduced()) {
    // The portfolio audited each start against the reduced instance; lift
    // everything back and re-check the winner against the original.
    lift_result(out.portfolio.best, solver.penalized_with());
    for (SolverResult& start_result : out.portfolio.starts) {
      lift_result(start_result, solver.penalized_with());
      validate_lifted(start_result, solver.penalized_with());
    }
    validate_lifted(out.portfolio.best, solver.penalized_with());
  }
  out.seconds = timer.seconds();
  return out;
}

SolverResult SolvePipeline::solve_one(const Solver& solver,
                                      const StartPoint& start) const {
  const Timer timer;
  if (reduced_.rn_feasible) {
    SolverResult exact = rn_result(solver);
    validate_lifted(exact, solver.penalized_with());
    exact.seconds = timer.seconds();
    return exact;
  }
  StartPoint reduced_start{reduced_.lift.restrict_to_reduced(start.assignment),
                           start.seed};
  SolverResult result =
      solver.solve(reduced_.problem, reduced_start, std::stop_token());
  if (reduced()) {
    lift_result(result, solver.penalized_with());
    validate_lifted(result, solver.penalized_with());
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace qbp::engine
