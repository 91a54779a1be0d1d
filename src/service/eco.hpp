// The ECO re-solve path: turn a cached neighbor's assignment into a
// solution of the *submitted* problem at a fraction of a cold solve.
//
// An engineering-change re-submission differs from its cached neighbor by
// a bounded number of size/wire/capacity edits (service/cache.hpp's
// find_nearest guarantees the bound), so the cached assignment is already
// near-optimal for the new instance.  eco_resolve runs the repair-and-
// polish recipe on one core/placement of it -- one C1 ledger, one conflict
// table:
//
//   1. capacity legalization: core/repair.hpp's legalize_capacity
//      (shrunk sizes and lowered capacities are the only way C1 can break,
//      so this is usually a no-op);
//   2. timing repair: core/repair.hpp's min-conflicts walk, which attaches
//      the placement's conflict table (C2 can only break when wire edits
//      shifted nothing -- Dc and D are identical by the structure-hash
//      gate -- so this too is usually a no-op on a feasible seed);
//   3. polish: DeltaEvaluator(penalty = 0) attached to the same placement,
//      best-improvement move sweeps restricted to feasibility-preserving
//      moves (C1 off the placement's ledger, C2 off the walk's conflict
//      rows), until a sweep finds nothing, 8 sweeps have run, or the stop
//      token fires.
//
// When any step fails to reach feasibility the result comes back
// found_feasible = false and the caller (service/job.cpp) falls back to a
// cold solve -- the warm path can degrade latency, never answers.  The
// caller runs it on the job's own thread, on the raw submitted instance
// (no presolve), and shadow-audits it like a portfolio start when
// validation is on (engine::audit_result).
#pragma once

#include <cstdint>
#include <stop_token>

#include "core/placement.hpp"  // Placement, DeltaEvaluator
#include "engine/solver.hpp"

namespace qbp::service {

/// Step 3 on the caller's placement, read through `evaluator` (penalty 0,
/// attached here; it must outlive the placement's later moves): C1 off the
/// placement's ledger, C2 off its conflict table (the walk's, when the
/// walk ran; attached here otherwise).  Sets `cancelled` when the stop
/// token cut it short.  Returns the number of committed moves.
[[nodiscard]] std::int64_t eco_polish(Placement& placement,
                                      DeltaEvaluator& evaluator,
                                      std::stop_token stop, bool& cancelled);

/// The recipe above, run in place on `assignment` (the cached neighbor's
/// answer) with walk seed `seed`.  The result is named "eco"; its record is
/// the final assignment's (core/outcome.hpp's outcome_of, penalized value
/// at kPaperPenalty, feasible when every step succeeded), and `iterations`
/// counts legalization moves, walk moves and polish commits.
[[nodiscard]] engine::SolverResult eco_resolve(const PartitionProblem& problem,
                                               Assignment assignment,
                                               std::uint64_t seed,
                                               std::stop_token stop);

}  // namespace qbp::service
