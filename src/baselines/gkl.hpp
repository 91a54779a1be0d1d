// GKL: generalized Kernighan-Lin baseline (paper Section 5).
//
// "The second one is a generalization of Kernighan & Lin's heuristic --
// GKL, switching a pair of components at a time.  Associated with each
// component are (N - 1) gain entries, each entry representing the potential
// gain if that component is switched with the corresponding component."
//
// Each outer loop is a KL pass: starting from all components unlocked,
// repeatedly apply the best feasible pairwise swap over *all* unlocked
// pairs (full (N - 1)-entry gain semantics), lock both components, and at
// the end roll back to the best prefix.  Swaps are only allowed when they
// keep capacity and timing constraints satisfied.  The paper terminates
// "after the first 6 outer loops due to excessive CPU runtime. Since any
// gain obtained beyond the first 6 outer loops is insignificant, this
// cutoff strategy provides speedup without sacrificing solution quality"
// -- max_outer_loops = 6.
//
// Swap gains are O(1) thanks to the incident rows of an objective-mode
// DeltaEvaluator (row(j, i) = j's linear cost plus the cost of its incident
// wires if j sat in partition i), which every applied swap patches in
// O(degree * M): a component's gains are its move_deltas, and a swap's
// delta comes off two rows plus the pair term (cached_swap_delta).
//
// The best swap is found without scoring every pair.  A swap's delta is
// g_a(p_b) + g_b(p_a) + 2 beta w_ab (B(p_a, p_b) + B(p_b, p_a)), where g_x(t)
// is x's one-sided move gain; the last term is never negative, so the two
// move gains bound the delta from below (Kernighan & Lin's sorted-gain
// cutoff, made exact).  Each step visits the unlocked components in
// ascending order of their best bound and stops once a bound cannot beat
// the best swap found, so it returns the pair an exhaustive scan returns,
// ties included, at O(U * M) for the gains plus the pairs the bound cannot
// rule out, instead of O(U^2) scored pairs.  A per-(component, partition)
// count of blocking timing partners, updated for the moved components'
// partners only, filters the swaps that timing forbids.
//
// Requires beta >= 0, B >= 0 with a zero diagonal and a zero D diagonal
// (checked on entry; PartitionProblem::validate enforces them for file and
// wire input).
#pragma once

#include <cstdint>
#include <stop_token>

#include "core/problem.hpp"

namespace qbp {

struct GklOptions {
  /// The paper's cutoff.
  std::int32_t max_outer_loops = 6;
  double min_improvement = 1e-9;
  /// Cooperative cancellation, polled between outer loops.  The default
  /// token never fires.
  std::stop_token stop;
};

struct GklResult {
  Assignment assignment;
  double objective = 0.0;
  std::int32_t outer_loops = 0;
  std::int64_t swaps_applied = 0;
  std::int64_t swaps_kept = 0;
  double seconds = 0.0;
};

/// `initial` must be complete and feasible (C1 and C2).
[[nodiscard]] GklResult solve_gkl(const PartitionProblem& problem,
                                  const Assignment& initial,
                                  const GklOptions& options = {});

}  // namespace qbp
