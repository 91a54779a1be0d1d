#include "service/eco.hpp"

#include <cstdint>
#include <utility>

#include "core/delta_evaluator.hpp"
#include "core/outcome.hpp"
#include "core/repair.hpp"

namespace qbp::service {

namespace {

/// Polish sweep cap; each sweep is one best-improvement pass over all
/// components.
constexpr std::int32_t kMaxSweeps = 8;
/// Ignore move deltas better by less than this (FP noise guard).
constexpr double kMinGain = 1e-9;

}  // namespace

std::int64_t eco_polish(Placement& placement, DeltaEvaluator& evaluator,
                        std::stop_token stop, bool& cancelled) {
  const Assignment& assignment = placement.assignment();
  const std::int32_t n = placement.problem().num_components();
  const std::int32_t m = placement.problem().num_partitions();
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

engine::SolverResult eco_resolve(const PartitionProblem& problem,
                                 Assignment assignment, std::uint64_t seed,
                                 std::stop_token stop) {
  engine::SolverResult result;
  result.solver = "eco";
  std::int64_t moves = 0;
  const bool feasible = [&] {
    if (!assignment.is_complete()) return false;
    // One placement for all three steps: one ledger, and the conflict table
    // the walk attaches and the polish reads.  The evaluator is declared
    // first: the placement commits the polish's moves through it.
    DeltaEvaluator evaluator(problem, /*penalty=*/0.0);
    Placement placement(problem, assignment);
    if (!legalize_capacity(placement, moves)) return false;

    // Timing repair (min-conflicts) from the legalized start; preserves C1.
    RepairOptions repair_options;
    repair_options.seed = seed;
    const RepairResult repaired = repair_timing(placement, repair_options);
    moves += repaired.moves;
    if (!repaired.feasible) return false;

    moves += eco_polish(placement, evaluator, stop, result.cancelled);
    return true;
  }();
  static_cast<Outcome&>(result) =
      outcome_of(problem, std::move(assignment), kPaperPenalty, feasible);
  result.iterations = moves;
  return result;
}

}  // namespace qbp::service
