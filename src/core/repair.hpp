// Min-conflicts timing repair.
//
// The Burkard iteration is a global line search: it drives the violation
// count down fast but -- being built from simultaneous whole-circuit GAP
// solves -- can plateau with a handful of residual violations on very tight
// constraint sets.  This utility finishes the job locally: repeatedly pick
// a component involved in a violated constraint and move it to the
// capacity-feasible partition with the fewest resulting violations
// (sideways moves allowed, random tie-breaking).  Used by make_initial as a
// fallback, and available to users whose hand-made assignments need
// legalizing.
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
