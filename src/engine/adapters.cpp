#include "engine/adapters.hpp"

#include <utility>

#include "core/initial.hpp"
#include "core/repair.hpp"

namespace qbp::engine {

namespace {

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

/// `record` as solver `name`'s normalized result.
SolverResult normalized(std::string_view name, Outcome record) {
  SolverResult result;
  result.solver = std::string(name);
  static_cast<Outcome&>(result) = std::move(record);
  return result;
}

/// What a feasible-region walk hands back: its answer and its accounting.
struct Walk {
  Assignment assignment;
  std::int64_t iterations = 0;
  double seconds = 0.0;
};

/// Run a feasible-region solver (GFM/GKL/SA): `walk` runs it from the
/// legalized start.  The walk never violates C1/C2, so its answer is
/// recorded as feasible; without a feasible start the record is the raw
/// start's.
template <class WalkFn>
SolverResult walk_result(std::string_view name, const PartitionProblem& problem,
                         const StartPoint& start, const std::stop_token& stop,
                         WalkFn walk) {
  const InitialResult initial = feasible_start(problem, start);
  if (!initial.feasible) {
    return normalized(name, outcome_of(problem, start.assignment,
                                       kPaperPenalty, /*feasible=*/false));
  }
  Walk run = walk(initial.assignment);
  SolverResult result =
      normalized(name, outcome_of(problem, std::move(run.assignment),
                                  kPaperPenalty, /*feasible=*/true));
  result.iterations = run.iterations;
  result.seconds = run.seconds;
  result.cancelled = stop.stop_requested();
  return result;
}

}  // namespace

SolverResult BurkardSolver::solve(const PartitionProblem& problem,
                                  const StartPoint& start,
                                  std::stop_token stop) const {
  BurkardOptions options = options_;
  options.stop = stop;
  BurkardResult run = solve_qbp(problem, start.assignment, options);

  SolverResult result = normalized(name(), run);
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
  options.stop = stop;
  MultilevelResult run = solve_qbp_multilevel(problem, start.assignment, options);

  SolverResult result = normalized(name(), run.finest);
  result.history = std::move(run.finest.history);
  result.iterations = run.coarse_iterations;
  result.seconds = run.seconds;
  result.cancelled = stop.stop_requested();
  return result;
}

SolverResult GfmSolver::solve(const PartitionProblem& problem,
                              const StartPoint& start,
                              std::stop_token stop) const {
  GfmOptions options = options_;
  options.stop = stop;
  return walk_result(name(), problem, start, stop, [&](const Assignment& from) {
    GfmResult run = solve_gfm(problem, from, options);
    return Walk{std::move(run.assignment), run.passes, run.seconds};
  });
}

SolverResult GklSolver::solve(const PartitionProblem& problem,
                              const StartPoint& start,
                              std::stop_token stop) const {
  GklOptions options = options_;
  options.stop = stop;
  return walk_result(name(), problem, start, stop, [&](const Assignment& from) {
    GklResult run = solve_gkl(problem, from, options);
    return Walk{std::move(run.assignment), run.outer_loops, run.seconds};
  });
}

SolverResult SaSolver::solve(const PartitionProblem& problem,
                             const StartPoint& start,
                             std::stop_token stop) const {
  SaOptions options = options_;
  options.seed = start.seed;
  options.stop = stop;
  return walk_result(name(), problem, start, stop, [&](const Assignment& from) {
    SaResult run = solve_sa(problem, from, options);
    return Walk{std::move(run.assignment), run.temperature_steps, run.seconds};
  });
}

}  // namespace qbp::engine
