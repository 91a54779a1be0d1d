#include "service/eco.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "core/delta_evaluator.hpp"
#include "core/placement.hpp"
#include "core/qhat.hpp"
#include "core/repair.hpp"

namespace qbp::service {

namespace {

/// Polish sweep cap; each sweep is one best-improvement pass over all
/// components.
constexpr std::int32_t kMaxSweeps = 8;
/// Ignore move deltas better by less than this (FP noise guard).
constexpr double kMinGain = 1e-9;

/// Deterministic C1 legalization: for each overfull partition (ascending
/// id), repeatedly move its largest member (lowest id among ties) to the
/// fitting partition with the most slack (lowest id among ties).  Returns
/// false when some component fits nowhere or the move budget runs out --
/// the caller then reports infeasible and the job falls back to cold.
bool legalize_capacity(const PartitionProblem& problem, Assignment& assignment,
                       std::int64_t& moves) {
  const std::vector<double>& sizes = problem.netlist().sizes();
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  Placement placement(problem, assignment);
  const CapacityLedger& ledger = placement.ledger();
  const std::int64_t budget = 4 * static_cast<std::int64_t>(n) + 16;
  std::int64_t used = 0;
  for (PartitionId i = 0; i < m; ++i) {
    while (ledger.slack(i) < -CapacityLedger::kTolerance) {
      if (++used > budget) return false;
      std::int32_t mover = -1;
      for (std::int32_t j = 0; j < n; ++j) {
        if (assignment[j] != i) continue;
        if (mover < 0 || sizes[static_cast<std::size_t>(j)] >
                             sizes[static_cast<std::size_t>(mover)]) {
          mover = j;
        }
      }
      if (mover < 0) return false;  // empty yet overfull: capacities < 0
      PartitionId target = -1;
      for (PartitionId t = 0; t < m; ++t) {
        if (t == i || !placement.fits(mover, t)) continue;
        if (target < 0 || ledger.slack(t) > ledger.slack(target)) target = t;
      }
      if (target < 0) return false;
      placement.move(mover, target);
      ++moves;
    }
  }
  return true;
}

/// Best-improvement move sweeps on the true objective, restricted to moves
/// that keep C1 (the placement's ledger) and C2 (its conflict rows)
/// satisfied.  Returns the number of committed moves.
std::int64_t polish(const PartitionProblem& problem, Assignment& assignment,
                    std::stop_token stop, bool& cancelled) {
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  DeltaEvaluator evaluator(problem, /*penalty=*/0.0);
  Placement placement(problem, assignment);
  placement.attach(evaluator);
  placement.attach_conflicts();
  std::int64_t commits = 0;
  for (std::int32_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool moved = false;
    for (std::int32_t j = 0; j < n; ++j) {
      if (stop.stop_requested()) {
        cancelled = true;
        return commits;
      }
      const std::span<const double> deltas =
          evaluator.move_deltas(assignment, j);
      PartitionId best = -1;
      double best_delta = -kMinGain;
      for (PartitionId t = 0; t < m; ++t) {
        if (t == assignment[j]) continue;
        if (!(deltas[static_cast<std::size_t>(t)] < best_delta)) continue;
        if (!placement.fits(j, t) || placement.conflicts(j, t) != 0) continue;
        best = t;
        best_delta = deltas[static_cast<std::size_t>(t)];
      }
      if (best < 0) continue;
      placement.move(j, best);
      ++commits;
      moved = true;
    }
    if (!moved) break;
  }
  return commits;
}

}  // namespace

engine::SolverResult EcoPolishSolver::solve(const PartitionProblem& problem,
                                            const engine::StartPoint& start,
                                            std::stop_token stop) const {
  engine::SolverResult result;
  result.solver = std::string(name());
  Assignment assignment = start.assignment;
  std::int64_t moves = 0;

  const auto finish = [&](bool feasible) {
    result.best = assignment;
    result.best_penalized =
        QhatMatrix(problem, penalized_with()).penalized_value(assignment);
    if (feasible) {
      result.best_feasible = assignment;
      result.best_feasible_objective = problem.objective(assignment);
      result.found_feasible = true;
    }
    result.iterations = moves;
    return result;
  };

  if (!assignment.is_complete() || !legalize_capacity(problem, assignment, moves)) {
    return finish(false);
  }

  // Timing repair (min-conflicts) from the legalized start; preserves C1.
  RepairOptions repair_options;
  repair_options.seed = start.seed;
  RepairResult repaired = repair_timing(problem, assignment, repair_options);
  moves += repaired.moves;
  if (!repaired.feasible) {
    assignment = repaired.assignment;
    return finish(false);
  }
  assignment = repaired.assignment;

  bool cancelled = false;
  moves += polish(problem, assignment, stop, cancelled);
  result.cancelled = cancelled;
  return finish(true);
}

}  // namespace qbp::service
