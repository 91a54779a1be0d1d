// One legalizer: restore C1 and C2 on a near-solution, in place, on the
// caller's core/placement.
//
// The Burkard iteration is a global line search built from simultaneous
// whole-circuit GAP solves; the short B = 0 run make_initial uses ends with
// C2 violations on every Table I circuit, and an engineering change can
// break C1 or C2 of a cached answer.  Two steps legalize locally:
//
//   * legalize_capacity restores C1 deterministically: for each overfull
//     partition, move its largest member to the fitting partition with the
//     most slack;
//   * repair_timing restores C2 by a min-conflicts walk: repeatedly pick a
//     component involved in a violated constraint and move it to the
//     capacity-feasible partition with the fewest resulting violations
//     (sideways moves allowed, random tie-breaking).  It reads its counts
//     from the placement's ConflictTable, patched per move, and its
//     verdict from the placement's ledger and conflict rows.
//
// Both move through the placement, so its ledger and conflict table stay
// current for whatever the caller runs next (ECO's polish reads the walk's
// table).  Used by make_initial, the V-cycle's finest level, the
// feasible-region solvers' start and ECO's warm re-solve (service/eco.hpp);
// a caller that keeps the pre-walk assignment when the walk fails walks a
// copy.
#pragma once

#include <cstdint>

#include "core/placement.hpp"

namespace qbp {

struct RepairOptions {
  /// Move budget; -1 means 200 * N.
  std::int64_t max_moves = -1;
  std::uint64_t seed = 1;
};

struct RepairResult {
  bool feasible = false;  // C1 and C2 both hold on exit
  std::int64_t moves = 0;
};

/// Deterministic C1 legalization of the placement's complete assignment:
/// for each overfull partition (ascending id), repeatedly move its largest
/// member (lowest id among ties) to the fitting partition with the most
/// slack (lowest id among ties), within 4 * N + 16 moves.  Adds its moves
/// to `moves`.  Returns whether C1 holds on exit; false when some component
/// fits nowhere or the budget runs out.
[[nodiscard]] bool legalize_capacity(Placement& placement, std::int64_t& moves);

/// Min-conflicts walk over the placement's assignment, in place; attaches
/// the placement's conflict table when none is attached.  The assignment
/// must be complete and capacity-feasible; C1 stays satisfied throughout
/// (only C2 is being repaired).
[[nodiscard]] RepairResult repair_timing(Placement& placement,
                                         const RepairOptions& options = {});

}  // namespace qbp
