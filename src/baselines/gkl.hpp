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
// the best swap found.  Two things keep a step's work near the pairs that
// matter:
//
//   * a capacity window.  The components are sorted once by (size, id), and
//     each step lists every partition's unlocked members in that order.
//     Both halves of the C1 test are monotone in the partner's size (IEEE
//     addition rounds monotonically), so the partners that can trade with
//     a component form one contiguous run of a target's list, which
//     Placement::SwapRow::window finds by two binary searches with the
//     placement's own comparisons.  Only that run is scanned, and a pair's
//     delta is computed only when it fits;
//   * a masked gain table kept across steps.  gain(j, t) is g_j(t), set to
//     +inf at j's own partition and wherever a timing partner blocks j
//     alone, so the per-target cheapest partner gain and every row's bound
//     are branch-free minimums.  A swap changes only the rows of the movers'
//     wire neighbors (their incident rows, DeltaEvaluator's
//     Fiduccia-Mattheyses patch) and timing partners (their conflict rows):
//     only those are recomputed, and every row after a loop's rollback.
//
// The answer does not depend on the order rows are visited in: it is the
// (delta, lo, hi)-least feasible pair, and a row or pair is skipped only
// when its bound clears the incumbent by a rounding margin, so any order
// non-decreasing in the bound returns the exhaustive scan's swap, ties
// included.  The timing filter reads the placement's per-(component,
// partition) count of blocking partners, updated for the moved components'
// partners only.  GklResult::pairs_scored (the profiler's gkl.pairs_scored,
// beside gkl.partners and gkl.gain_rows) counts the deltas computed.
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
  /// Pairs whose swap delta the best-swap searches computed (the profiler's
  /// gkl.pairs_scored): the same on every run and host.
  std::int64_t pairs_scored = 0;
  double seconds = 0.0;
};

/// `initial` must be complete and feasible (C1 and C2).
[[nodiscard]] GklResult solve_gkl(const PartitionProblem& problem,
                                  const Assignment& initial,
                                  const GklOptions& options = {});

}  // namespace qbp
