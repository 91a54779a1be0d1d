// Exact branch-and-bound for the constrained partitioning problem.
//
// Depth-first search over components (most-connected first), pruning with:
//   * capacity:  a component only branches into partitions with room;
//   * timing:    candidate partitions must satisfy every constraint against
//                already-placed partners (C2 is pairwise, so this is exact);
//   * bound:     current cost + an admissible completion bound.  Each
//                unassigned component contributes at least its cheapest
//                placement against the *assigned* neighbors (non-negative
//                B/P make unassigned-unassigned interactions >= 0).
//
// Practical to ~20-30 components -- two orders of magnitude beyond the
// enumeration in core/brute_force.hpp -- which makes exhaustive
// verification of the heuristics possible on non-trivial instances: tests
// and the exact_gap bench suite hold the heuristics against it.
#pragma once

#include <cstdint>

#include "core/problem.hpp"

namespace qbp {

struct ExactOptions {
  /// Node budget; the search reports proven_optimal = false when exceeded.
  std::int64_t max_nodes = 20'000'000;
  /// Optional warm-start incumbent (tightens pruning from the first node);
  /// must be complete if provided.
  const Assignment* warm_start = nullptr;
};

struct ExactResult {
  Assignment best;
  double objective = 0.0;
  bool found = false;           // a feasible assignment exists (and is in best)
  bool proven_optimal = false;  // search completed within the node budget
  std::int64_t nodes = 0;       // branch-and-bound nodes expanded
};

[[nodiscard]] ExactResult solve_exact(const PartitionProblem& problem,
                                      const ExactOptions& options = {});

}  // namespace qbp
