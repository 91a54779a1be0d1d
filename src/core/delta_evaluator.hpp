// Unified incremental cost evaluation for single moves and pairwise swaps.
//
// Every local-search loop in the library (the Burkard iterate polish, the
// GFM/SA baselines, the shadow validator) needs the same two primitives:
// "what does the objective do if component j moves to partition i?" and
// "... if components a and b swap?".  This module is their single
// implementation:
//
//   * move_delta / swap_delta are the exact one-off deltas.  With a penalty
//     they are the plain-objective delta plus a timing-violation
//     correction, so the wire/linear arithmetic exists exactly once, in
//     delta_evaluator.cpp;
//   * DeltaEvaluator adds per-component contribution caching on top: the
//     full "incident cost of j by candidate partition" row is built once in
//     O((deg_A(j) + deg_Dc(j)) * M) and stays valid until a neighbor or
//     timing partner of j moves.  Staleness is pushed at commit time (a
//     commit marks the rows of the mover's neighbors and partners dirty in
//     O(degree)), so the freshness check on every read is O(1) -- reads
//     vastly outnumber commits in a polish sweep.  Loops that scan all M
//     targets of a component (the polish move sweep, FM-style gain updates)
//     get their deltas at amortized O(degree) instead of O(degree * M).
//
// The evaluator is not thread-safe; give each solver run its own instance
// (they are cheap: O(N) bookkeeping plus rows built on demand).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/problem.hpp"

namespace qbp {

class DeltaEvaluator {
 public:
  /// `penalty > 0`: deltas are on the penalized objective y^T Qhat y (the
  /// metric Burkard's polish descends); `penalty == 0`: deltas are on the
  /// true objective (the metric the feasible-region baselines descend).
  /// Holds a reference; `problem` must outlive the evaluator.
  explicit DeltaEvaluator(const PartitionProblem& problem, double penalty = 0.0);

  [[nodiscard]] double penalty() const noexcept { return penalty_; }

  /// Exact one-off deltas (no caching): the change in y^T Qhat y (penalized
  /// mode) or in the objective if `component` moved to `target` --
  /// O(degree in A + degree in Dc) -- or if the two components exchanged
  /// partitions, O(degree(a) + degree(b)).
  [[nodiscard]] double move_delta(const Assignment& assignment,
                                  std::int32_t component,
                                  PartitionId target) const;
  [[nodiscard]] double swap_delta(const Assignment& assignment,
                                  std::int32_t component_a,
                                  std::int32_t component_b) const;

  /// Deltas for moving `component` to every partition (entry [current] is
  /// 0).  Cached: the underlying incident-cost row survives until a
  /// neighbor or timing partner of `component` moves, so repeated calls are
  /// O(degree) instead of O(degree * M).  The returned span aliases an
  /// internal buffer invalidated by the next move_deltas call.
  [[nodiscard]] std::span<const double> move_deltas(const Assignment& assignment,
                                                    std::int32_t component);

  /// Apply a move/swap *through* the evaluator so cache freshness stamps
  /// stay correct.  Mutating the assignment behind the evaluator's back
  /// requires a subsequent invalidate().
  void commit_move(Assignment& assignment, std::int32_t component,
                   PartitionId target);
  void commit_swap(Assignment& assignment, std::int32_t component_a,
                   std::int32_t component_b);

  /// Drop all cached rows (the assignment changed externally).
  void invalidate();

  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept { return misses_; }

 private:
  struct Row {
    /// Incident cost of the component by candidate partition: linear term
    /// plus both ordered wire terms per neighbor, with the penalty
    /// replacing a wire term whenever that direction violates its bound
    /// (penalized mode only).
    std::vector<double> incident;
    bool valid = false;
  };

  void build_row(const Assignment& assignment, std::int32_t component, Row& row) const;
  /// A commit of `component` invalidates the rows that depend on its
  /// position: its neighbors' and timing partners' (never its own -- a row
  /// does not depend on its own component's position).
  void mark_dependents_stale(std::int32_t component);

  const PartitionProblem* problem_;
  double penalty_;
  std::vector<Row> rows_;       // lazily built, one per component
  std::vector<double> deltas_;  // scratch returned by move_deltas
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace qbp
