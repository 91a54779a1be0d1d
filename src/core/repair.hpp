// Min-conflicts timing repair.
//
// The Burkard iteration is a global line search built from simultaneous
// whole-circuit GAP solves; the short B = 0 run make_initial uses ends with
// C2 violations on every Table I circuit.  This walk legalizes locally:
// repeatedly pick a component involved in a violated constraint and move it
// to the capacity-feasible partition with the fewest resulting violations
// (sideways moves allowed, random tie-breaking).  It reads its counts from
// the ConflictTable of one core/placement, patched per move.  Used by
// make_initial, the V-cycle's finest level, the ECO warm path and the
// feasible-region solvers' start, and available to users whose hand-made
// assignments need legalizing.
#pragma once

#include <cstdint>

#include "core/problem.hpp"

namespace qbp {

struct RepairOptions {
  /// Move budget; -1 means 200 * N.
  std::int64_t max_moves = -1;
  std::uint64_t seed = 1;
};

struct RepairResult {
  Assignment assignment;
  bool feasible = false;  // C1 and C2 both hold on exit
  std::int64_t moves = 0;
};

/// `start` must be complete and capacity-feasible; capacity stays satisfied
/// throughout (only C2 is being repaired).
[[nodiscard]] RepairResult repair_timing(const PartitionProblem& problem,
                                         const Assignment& start,
                                         const RepairOptions& options = {});

}  // namespace qbp
