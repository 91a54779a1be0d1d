// The ECO re-solve path: turn a cached neighbor's assignment into a
// solution of the *submitted* problem at a fraction of a cold solve.
//
// An engineering-change re-submission differs from its cached neighbor by
// a bounded number of size/wire/capacity edits (service/cache.hpp's
// find_nearest guarantees the bound), so the cached assignment is already
// near-optimal for the new instance.  EcoPolishSolver is a full
// engine::Solver whose solve() runs the repair-and-polish recipe:
//
//   1. capacity legalization: deterministically move the largest
//      components out of overfull partitions into the best-slack fitting
//      one (shrunk sizes and lowered capacities are the only way C1 can
//      break, so this is usually a no-op);
//   2. timing repair: core/repair.hpp min-conflicts, seeded from the
//      StartPoint (C2 can only break when wire edits shifted nothing --
//      Dc and D are identical by the structure-hash gate -- so this too
//      is usually a no-op on a feasible seed);
//   3. polish: DeltaEvaluator(penalty = 0) best-improvement move sweeps
//      restricted to feasibility-preserving moves (C1 and C2 read off one
//      core/placement: its ledger and its conflict rows), until a sweep
//      finds nothing, 8 sweeps have run, or the stop token fires.
//
// When any step fails to reach feasibility the result comes back
// found_feasible = false and the caller (service/job.cpp) falls back to a
// cold solve -- the warm path can degrade latency, never answers.
//
// Plugged into the portfolio through the initial-assignment injection
// point (PortfolioOptions::initial), so the warm run inherits the whole
// pipeline: per-start shadow audit, lift (identity here -- the warm
// pipeline runs presolve-off), and the job-level stop token.
#pragma once

#include "engine/solver.hpp"

namespace qbp::service {

class EcoPolishSolver final : public engine::Solver {
 public:
  [[nodiscard]] std::string_view name() const override { return "eco"; }

  [[nodiscard]] engine::SolverResult solve(const PartitionProblem& problem,
                                           const engine::StartPoint& start,
                                           std::stop_token stop) const override;
};

}  // namespace qbp::service
