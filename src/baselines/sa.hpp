// Simulated-annealing baseline (extension beyond the paper).
//
// SA was the other standard 1990s comparator for constrained placement/
// partitioning; the paper compares only against interchange heuristics, so
// this module fills the obvious "what about annealing?" question a reader
// has.  The move set matches GFM/GKL (single relocations and pairwise
// swaps), feasibility is handled GFM-style -- a move is *proposed* only if
// it keeps capacity and timing satisfied, so the walk never leaves the
// feasible region -- and acceptance is Metropolis on the true objective
// with a geometric cooling schedule calibrated from an initial
// random-walk sample (standard Huang/Sechen-style initial temperature).
#pragma once

#include <cstdint>
#include <stop_token>

#include "core/problem.hpp"

namespace qbp {

/// The schedule's shape is fixed: T0 accepts the mean sampled uphill move
/// with probability 0.8, and each temperature step multiplies T by 0.95.
struct SaOptions {
  /// Moves attempted per temperature step = moves_per_component * N.
  std::int32_t moves_per_component = 16;
  /// Stop when temperature falls below this fraction of T0.
  double freeze_ratio = 1e-4;
  /// Fraction of proposals that are swaps (rest are single moves).
  double swap_fraction = 0.4;
  std::uint64_t seed = 1;
  /// Cooperative cancellation, polled between temperature steps.  The
  /// default token never fires.
  std::stop_token stop;
};

struct SaResult {
  Assignment assignment;   // best feasible seen
  double objective = 0.0;
  std::int64_t proposed = 0;
  std::int64_t accepted = 0;
  std::int32_t temperature_steps = 0;
  double seconds = 0.0;
};

/// `initial` must be complete and feasible (C1 and C2); the walk stays
/// feasible throughout.
[[nodiscard]] SaResult solve_sa(const PartitionProblem& problem,
                                const Assignment& initial,
                                const SaOptions& options = {});

}  // namespace qbp
