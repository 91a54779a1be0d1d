#include "engine/adapters.hpp"

#include <utility>

#include "core/initial.hpp"
#include "core/qhat.hpp"
#include "core/repair.hpp"

namespace qbp::engine {

namespace {

std::function<bool()> stop_hook(const std::stop_token& stop) {
  if (!stop.stop_possible()) return {};
  return [stop] { return stop.stop_requested(); };
}

/// Legalize a start for the feasible-region solvers.  Deterministic in
/// (assignment, seed): min-conflicts timing repair of a copy when capacity
/// already holds, else (or when the walk fails) the paper's B = 0
/// construction.
InitialResult feasible_start(const PartitionProblem& problem,
                             const StartPoint& start) {
  InitialResult out;
  out.assignment = start.assignment;
  out.feasible = problem.is_feasible(start.assignment);
  if (out.feasible) return out;

  if (problem.satisfies_capacity(start.assignment)) {
    RepairOptions repair_options;
    repair_options.seed = start.seed;
    Placement placement(problem, out.assignment);
    out.feasible = repair_timing(placement, repair_options).feasible;
    if (out.feasible) return out;
  }
  return make_initial(problem, InitialStrategy::kQbpZeroWireCost, start.seed);
}

/// Normalized result for a feasible-region solver that produced
/// `assignment` with true objective `objective` (penalized value equals the
/// objective because the walk never violates C1/C2).
SolverResult feasible_outcome(std::string solver_name, Assignment assignment,
                              double objective, std::int64_t iterations,
                              double seconds, const std::stop_token& stop) {
  SolverResult result;
  result.solver = std::move(solver_name);
  result.best = assignment;
  result.best_penalized = objective;
  result.best_feasible = std::move(assignment);
  result.best_feasible_objective = objective;
  result.found_feasible = true;
  result.iterations = iterations;
  result.seconds = seconds;
  result.cancelled = stop.stop_requested();
  return result;
}

/// Outcome when no feasible start could be built: report the raw start.
SolverResult infeasible_outcome(std::string solver_name,
                                const PartitionProblem& problem,
                                const StartPoint& start) {
  SolverResult result;
  result.solver = std::move(solver_name);
  result.best = start.assignment;
  result.best_penalized =
      QhatMatrix(problem, kPaperPenalty).penalized_value(start.assignment);
  result.found_feasible = false;
  return result;
}

}  // namespace

SolverResult BurkardSolver::solve(const PartitionProblem& problem,
                                  const StartPoint& start,
                                  std::stop_token stop) const {
  BurkardOptions options = options_;
  if (!options.should_stop) options.should_stop = stop_hook(stop);
  BurkardResult run = solve_qbp(problem, start.assignment, options);

  SolverResult result;
  result.solver = std::string(name());
  result.best = std::move(run.best);
  result.best_penalized = run.best_penalized;
  result.best_feasible = std::move(run.best_feasible);
  result.best_feasible_objective = run.best_feasible_objective;
  result.found_feasible = run.found_feasible;
  result.history = std::move(run.history);
  result.iterations = run.iterations_run;
  result.seconds = run.seconds;
  result.cancelled = stop.stop_requested();
  return result;
}

SolverResult MultilevelSolver::solve(const PartitionProblem& problem,
                                     const StartPoint& start,
                                     std::stop_token stop) const {
  MultilevelOptions options = options_;
  if (!options.should_stop) options.should_stop = stop_hook(stop);
  MultilevelResult run = solve_qbp_multilevel(problem, start.assignment, options);

  SolverResult result;
  result.solver = std::string(name());
  result.best = std::move(run.finest.best);
  result.best_penalized = run.finest.best_penalized;
  result.best_feasible = std::move(run.finest.best_feasible);
  result.best_feasible_objective = run.finest.best_feasible_objective;
  result.found_feasible = run.finest.found_feasible;
  result.history = std::move(run.finest.history);
  result.iterations = run.finest.iterations_run;
  result.seconds = run.seconds;
  result.cancelled = stop.stop_requested();
  return result;
}

SolverResult GfmSolver::solve(const PartitionProblem& problem,
                              const StartPoint& start,
                              std::stop_token stop) const {
  const InitialResult initial = feasible_start(problem, start);
  if (!initial.feasible) {
    return infeasible_outcome(std::string(name()), problem, start);
  }
  GfmOptions options = options_;
  if (!options.should_stop) options.should_stop = stop_hook(stop);
  GfmResult run = solve_gfm(problem, initial.assignment, options);
  return feasible_outcome(std::string(name()), std::move(run.assignment),
                          run.objective, run.passes, run.seconds, stop);
}

SolverResult GklSolver::solve(const PartitionProblem& problem,
                              const StartPoint& start,
                              std::stop_token stop) const {
  const InitialResult initial = feasible_start(problem, start);
  if (!initial.feasible) {
    return infeasible_outcome(std::string(name()), problem, start);
  }
  GklOptions options = options_;
  if (!options.should_stop) options.should_stop = stop_hook(stop);
  GklResult run = solve_gkl(problem, initial.assignment, options);
  return feasible_outcome(std::string(name()), std::move(run.assignment),
                          run.objective, run.outer_loops, run.seconds, stop);
}

SolverResult SaSolver::solve(const PartitionProblem& problem,
                             const StartPoint& start,
                             std::stop_token stop) const {
  const InitialResult initial = feasible_start(problem, start);
  if (!initial.feasible) {
    return infeasible_outcome(std::string(name()), problem, start);
  }
  SaOptions options = options_;
  options.seed = start.seed;
  if (!options.should_stop) options.should_stop = stop_hook(stop);
  SaResult run = solve_sa(problem, initial.assignment, options);
  return feasible_outcome(std::string(name()), std::move(run.assignment),
                          run.objective, run.temperature_steps, run.seconds,
                          stop);
}

}  // namespace qbp::engine
