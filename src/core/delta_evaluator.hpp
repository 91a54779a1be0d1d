// Unified incremental cost evaluation for single moves and pairwise swaps,
// and the one incident table every solver reads.
//
// Every local-search loop in the library (the Burkard iterate polish, the
// GFM/GKL/SA baselines, the ECO polish, the shadow validator) and Burkard's
// STEP 3 need the same incident sums: "what does the objective do if
// component j moves to partition i?", "... if components a and b swap?"
// and "what does eta_s = sum_r qhat(r, s) u_r hold?".  This module is their
// single implementation:
//
//   * move_delta / swap_delta are the exact one-off deltas.  With a penalty
//     they are the plain-objective delta plus a timing-violation
//     correction, so the wire/linear arithmetic exists exactly once, in
//     delta_evaluator.cpp.  They are the reference the cached path is
//     checked against;
//   * DeltaEvaluator adds per-component contribution caching on top: the
//     full "incident cost of j by candidate partition" row is built once in
//     O((deg_A(j) + deg_Dc(j)) * M) and then kept current.  The rows live in
//     one flat N x M array.  A commit of component c from partition s to t
//     (which local searches make through core/placement, together with
//     their ledger and conflict table) patches every built row that
//     depends on c -- its wire neighbors' and (penalized mode) its timing
//     partners' -- by subtracting c's terms at s and adding them at t, in
//     O(M) per row: the Fiduccia-Mattheyses gain update.  A wire term reads
//     the contiguous row of an M x M table of B(i, at) + B(at, i), built
//     once per evaluator, and a timing partner's wire count comes from a
//     cursor walking the mover's ascending adjacency row beside its
//     ascending partner row, so neither a build nor a patch searches.  Rows
//     never built stay lazy.  Loops that scan all M targets of a component
//     (the polish move sweep, GFM's and GKL's gains, the ECO polish) get
//     their deltas in O(M) instead of O(degree * M), and a pairwise swap
//     delta comes from two row differences plus the a-b pair term
//     (cached_swap_delta) instead of a rescan of both neighborhoods.  A
//     caller that walks a's adjacency or partner row passes the pair's
//     wire count and bound, and its swap delta does no lookup at all;
//   * eta() is STEP 3's gather read off the same table.  A row's *incoming
//     part* is what j's neighbors and partners contribute into candidate i
//     -- beta * a * B(at, i), or the penalty where D(at, i) breaks the bound
//     -- and eta is that part plus the alpha * p diagonal.  From the first
//     eta() on, a second flat N x M array keeps every row's incoming part,
//     and every later build and patch updates it; evaluators that never
//     read eta (the V-cycle polish, the baselines) never allocate it;
//   * the evaluator remembers the assignment its rows describe, so a jump
//     to an unrelated assignment (a Burkard STEP 6 iterate, a restart kick)
//     costs only what moved: follow(u) applies the same per-dependent
//     patch for every component whose partition differs, instead of
//     dropping and rebuilding all N rows.  Rows are never dropped, so each
//     is built at most once per evaluator.  Debug builds audit a sample of
//     the rows (and incoming parts) follow patched against fresh builds.
//
// A timing partner's penalty corrections visit only the columns that break
// its bound (partitions are pre-sorted by delay), so patching a partner's
// row costs what its violations touch, not M delay tests.
//
// The evaluator is not thread-safe; give each solver run its own instance
// (they are cheap: O(N + M^2) bookkeeping plus rows built on demand).
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
  /// partitions, O(degree(a) + degree(b)).  The reference implementation
  /// the cached paths below are checked against.
  [[nodiscard]] double move_delta(const Assignment& assignment,
                                  std::int32_t component,
                                  PartitionId target) const;
  [[nodiscard]] double swap_delta(const Assignment& assignment,
                                  std::int32_t component_a,
                                  std::int32_t component_b) const;

  /// Deltas for moving `component` to every partition (entry [current] is
  /// 0).  Cached: the underlying incident-cost row is built on the first
  /// read and patched by every later commit, so repeated calls are O(M)
  /// instead of O(degree * M).  The returned span aliases an internal
  /// buffer invalidated by the next move_deltas call.
  [[nodiscard]] std::span<const double> move_deltas(const Assignment& assignment,
                                                    std::int32_t component);

  /// swap_delta read from the cached rows of both components (built on
  /// demand): row_a[p_b] - row_a[p_a] + row_b[p_a] - row_b[p_b], plus the
  /// a-b pair term at the swapped positions minus the two co-located ones
  /// each row counted.  That is the Kernighan-Lin identity
  /// g = D_a + D_b - 2 c_ab, generalized to asymmetric B and to the penalty
  /// of an (a, b) timing constraint.  O(log degree) once both rows exist:
  /// the pair's wire count and bound are looked up (the bound only in
  /// penalized mode).
  [[nodiscard]] double cached_swap_delta(const Assignment& assignment,
                                         std::int32_t component_a,
                                         std::int32_t component_b);
  /// The same delta, bit for bit, for a caller that already holds the
  /// pair's wire count a_ab (0 if unwired) and timing bound
  /// (TimingConstraints::kUnconstrained if unconstrained), e.g. off the
  /// row it walks: O(1) once both rows exist, no lookup.  Objective mode
  /// ignores `bound`.
  [[nodiscard]] double cached_swap_delta(const Assignment& assignment,
                                         std::int32_t component_a,
                                         std::int32_t component_b,
                                         std::int32_t wires, double bound);

  /// Apply a move *through* the evaluator so the built rows are patched (a
  /// swap is two moves; core/placement commits both).  The cached reads
  /// above must be passed the assignment the rows describe: after mutating
  /// it behind the evaluator's back, call follow() before the next read.
  void commit_move(Assignment& assignment, std::int32_t component,
                   PartitionId target);

  /// Bring the built rows to `assignment`: every component whose partition
  /// differs from the point the rows describe is committed there, patching
  /// its dependents' rows in O(M) each.  O(N) to find the movers plus
  /// O((deg_A + deg_Dc) * M) per mover -- against O((nnz(A) + nnz(Dc)) * M)
  /// for rebuilding every row -- and bit-identical to fresh rows on integer
  /// data.
  void follow(const Assignment& assignment);

  /// STEP 3 of the Burkard iteration: out[r] = sum_s qhat(s, r) * u_s for
  /// the complete assignment `u`, with `out` laid out like y (r = i + j * M,
  /// flat_size() entries).  Follows `u`, builds every row not yet built
  /// (each a cache miss), and writes each row's incoming part plus the
  /// alpha * p diagonal: O(N * M) once the rows exist.  Objective mode
  /// gathers the same way over the objective's own matrix (no penalty
  /// entries).  On integer wires, B, D and penalty the result is
  /// bit-identical to a fresh evaluator's, whatever P is.
  void eta(const Assignment& u, std::span<double> out);

  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept { return misses_; }

 private:
  /// Where `component`'s row (and incoming part) starts in the flat arrays.
  [[nodiscard]] std::size_t offset(std::int32_t component) const noexcept {
    return static_cast<std::size_t>(component) * m_;
  }
  /// The incoming part of `component`'s row, or nullptr before the first
  /// eta() (nothing to keep).
  [[nodiscard]] double* incoming_row(std::int32_t component) {
    return incoming_.empty() ? nullptr : incoming_.data() + offset(component);
  }

  /// Add `sign` times the wire terms a neighbor at partition `at`
  /// contributes to every column i of an M-entry incident row: both ordered
  /// directions, B(i, at) + B(at, i) off wire_both_, scaled by `scale` =
  /// beta * a_jk.  The incoming direction B(at, i) also goes into a
  /// non-null `incoming`.  An unassigned neighbor contributes nothing.
  void add_wire_terms(double scale, PartitionId at, double sign, double* row,
                      double* incoming) const;
  /// Write `component`'s row at `assignment` into `row` (M entries):
  /// linear term, then both ordered wire terms per neighbor, then the
  /// penalty corrections per timing partner (penalized mode), with the
  /// penalty replacing a wire term whenever that direction violates its
  /// bound.  A non-null `incoming` receives the row's incoming part.
  void build_row(const Assignment& assignment, std::int32_t component,
                 double* row, double* incoming) const;
  /// Build `component`'s row (and incoming part, once tracked) at
  /// `assignment`: one cache miss.
  void build(const Assignment& assignment, std::int32_t component);
  /// The built row of `component` (building it on a miss).
  const double* cached_row(const Assignment& assignment,
                           std::int32_t component);
  /// Penalized mode: add `sign` times the corrections a timing partner at
  /// partition `at` (pair bound `bound`, `wires` = the pair's a_jk, which
  /// the caller finds walking the rows) contributes to every column i of a
  /// row: a violating direction's wire term beta * a * B is replaced by the
  /// flat penalty.  The D(at, i) direction is incoming and also goes into a
  /// non-null `incoming`.  Visits only the violating columns (off
  /// by_delay_).  An unassigned partner contributes nothing.
  void add_violation_terms(std::int32_t wires, double bound, PartitionId at,
                           double sign, double* row, double* incoming) const;
  /// `component` moved from `source` to `target`: move its terms in every
  /// built row that depends on its position -- its neighbors' and timing
  /// partners' (never its own: a row does not depend on its own
  /// component's position).
  void patch_dependents(std::int32_t component, PartitionId source,
                        PartitionId target);
  /// Debug audit of follow(): rebuilds the built dependent rows of a sample
  /// of `movers` from point_ and compares them, and their incoming parts,
  /// with the patched ones at a relative tolerance of 1e-9.
  [[nodiscard]] bool patched_rows_match(std::span<const std::int32_t> movers) const;

  const PartitionProblem* problem_;
  double penalty_;
  std::size_t m_;
  /// Row j at [j * M, j * M + M), valid where built_[j]; allocated by the
  /// first build.
  std::vector<double> incident_;
  std::vector<std::uint8_t> built_;
  /// The rows' incoming parts, same layout; empty until the first eta().
  std::vector<double> incoming_;
  /// B(i, at) + B(at, i) at [at * M + i]: the two ordered wire terms of a
  /// neighbor at `at`, summed once per evaluator.
  std::vector<double> wire_both_;
  /// Penalized mode: the partitions i in descending order of D(i, at) at
  /// [at * M, at * M + M), then in descending order of D(at, i) at
  /// [M * M + at * M, ...).
  std::vector<PartitionId> by_delay_;
  /// The assignment every built row describes; empty until a row is built
  /// or follow() is called.
  Assignment point_;
  std::vector<double> deltas_;  // scratch returned by move_deltas
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace qbp
