// Presolve: exactness-preserving reductions applied before any solver runs.
//
// PBQP solvers routinely shrink quadratic-assignment instances with a small
// set of local reductions before the expensive part starts (libfirm's kaps:
// R0 trivial nodes, RI/RII low-degree eliminations, RN brute force on tiny
// remainders).  The same idea applies to the paper's PP(alpha, beta): many
// components have forced or mergeable assignments that can be discharged in
// O(N + nnz) before the first Burkard iteration pays for their y variables.
//
// Rules, iterated to a fixed point (kaps-style counters in PresolveStats):
//
//   R0  forced fix.  A component whose capacity-feasible partition set is a
//       singleton {q} is fixed at q, its linear cost folded into the
//       constant offset, its wire costs folded into its neighbors' linear
//       columns, and its capacity charged against partition q.  A component
//       with an *empty* set proves the instance infeasible.  Timing
//       constraints against still-free partners are only discharged when
//       vacuous over the partner's capacity-feasible set; otherwise the fix
//       is deferred (possibly forever -- the solver then handles it).
//   R1  low-degree elimination.  A component with no timing constraints and
//       at most one free wire neighbor is removed; its optimal response to
//       each neighbor placement is precomputed into a response table (the
//       PBQP RI/RII move) and the response cost folded into the neighbor's
//       linear column.  Exactness under the *global* capacity constraint C1
//       is bought by reserving the component's size from every partition's
//       capacity in the reduced instance, so the lift-time placement always
//       fits; the r1_* caps bound how much feasible region that reservation
//       may cost.
//   R2  must-co-locate merge.  A timing bound that no pair of *distinct*
//       partitions can satisfy forces its endpoints into the same partition;
//       the pair is merged into a super-component (sizes summed, wire rows
//       aggregated, timing bounds min-combined, linear columns added),
//       exactly like the multilevel coarsener's matching contraction.
//   RN  remainder brute force.  When the fixed point leaves at most
//       rn_max_components free components, the reduced instance is solved
//       *exactly* with core/brute_force and the heuristic solve is skipped.
//
// The output is a ReducedProblem: the shrunken PP(1,1) instance plus an
// invertible SolutionLift mapping reduced-space assignments back to the
// original component set (and original-space starts forward).  Lifting adds
// objective_offset to the reduced objective; for capacity-feasible solutions
// the lifted assignment is feasible for the *original* problem whenever the
// reduced one is feasible for the reduced problem (see DESIGN.md section 12
// for the correctness argument).  Callers must present a normalized
// PP(1, 1) instance -- PartitionProblem::normalized() folds alpha/beta
// without changing objective values.
#pragma once

#include <cstdint>
#include <vector>

#include "core/problem.hpp"

namespace qbp {

struct PresolveOptions {
  /// Master switch.  presolve() returns an identity reduction when false.
  /// engine::SolvePipeline is the only place an instance is reduced before
  /// a solve; entry points (CLI, service, bench harness) set this per run,
  /// and the core solvers never presolve on their own.
  bool enabled = true;
  bool rule_r0 = true;
  bool rule_r1 = true;
  bool rule_r2 = true;
  bool rule_rn = true;
  /// Fixed-point iteration cap; each pass tries R2, R0, R1 once.
  std::int32_t max_passes = 32;
  /// RN fires when at most this many free components remain (and the
  /// enumeration stays within the brute-force work budget).
  std::int32_t rn_max_components = 4;
  /// R1 guard: an eliminated component's size must not exceed this fraction
  /// of the smallest partition capacity, and the cumulative reservation must
  /// stay under r1_max_reserve_fraction of it.  Both bound how much of the
  /// feasible region the everywhere-reservation may cost.
  double r1_max_size_fraction = 0.05;
  double r1_max_reserve_fraction = 0.25;
};

/// kaps-style reduction counters plus bookkeeping of one presolve() call.
struct PresolveStats {
  std::int32_t r0 = 0;  // components fixed
  std::int32_t r1 = 0;  // components eliminated into response tables
  std::int32_t r2 = 0;  // components merged away
  std::int32_t rn = 0;  // components solved exactly by the RN brute force
  std::int32_t components_removed = 0;  // r0 + r1 + r2
  std::int32_t passes = 0;
  double seconds = 0.0;
  /// R0 found a component with no capacity-feasible partition: the original
  /// instance has no feasible solution.  The reduction returns identity so
  /// the solver still runs (and reports infeasibility) exactly as without
  /// presolve.
  bool proven_infeasible = false;

  friend bool operator==(const PresolveStats&, const PresolveStats&) = default;
};

/// One replayable reduction step, recorded in application order and replayed
/// in reverse by SolutionLift::lift (so every referenced component is placed
/// before its dependents).
struct LiftAction {
  enum class Kind : std::uint8_t {
    kFix,        // component forced to `partition` (R0)
    kMerge,      // component co-located with representative `other` (R2)
    kEliminate,  // component placed via `response` table (R1)
  };
  Kind kind = Kind::kFix;
  /// Original-space id of the removed component.
  std::int32_t component = -1;
  /// kMerge: surviving representative; kEliminate: the one free neighbor at
  /// elimination time (-1 when the component had degree 0).
  std::int32_t other = -1;
  /// kFix: the forced partition.
  PartitionId partition = -1;
  /// kEliminate: best own placement per neighbor partition (length M), or a
  /// single entry when other == -1.
  std::vector<PartitionId> response;
};

/// Invertible mapping between the reduced and original solution spaces.
struct SolutionLift {
  std::int32_t num_original = 0;
  std::int32_t num_partitions = 0;
  /// Constant objective mass folded out of the instance: for any complete
  /// reduced assignment u, original_objective(lift(u)) = reduced_objective(u)
  /// + objective_offset (exactly, up to floating-point summation order).
  double objective_offset = 0.0;
  /// Reduced index -> original component id (ascending).
  std::vector<std::int32_t> orig_of;
  std::vector<LiftAction> actions;

  [[nodiscard]] bool identity() const noexcept { return actions.empty(); }

  /// Complete reduced-space assignment -> complete original-space assignment.
  [[nodiscard]] Assignment lift(const Assignment& reduced) const;

  /// Original-space assignment -> reduced-space start (surviving
  /// representatives keep their original partition; removed components are
  /// dropped).  Used to carry an explicit initial solution into the reduced
  /// solve.
  [[nodiscard]] Assignment restrict_to_reduced(const Assignment& original) const;
};

/// Result of presolve(): the instance to hand to a solver plus the lift.
struct ReducedProblem {
  /// The reduced PP(1,1) instance.  When identity() this is an unmodified
  /// copy of the input, so a solver run on it is bit-identical to a run on
  /// the input itself.
  PartitionProblem problem;
  SolutionLift lift;
  PresolveStats stats;

  /// RN ran the exact brute force on the remainder.
  bool rn_solved = false;
  /// ... and found a feasible optimum (rn_assignment / rn_objective below,
  /// both in *reduced* space).  When rn_solved && !rn_feasible the reduced
  /// instance -- hence the original -- has no feasible solution.
  bool rn_feasible = false;
  Assignment rn_assignment;
  double rn_objective = 0.0;

  [[nodiscard]] bool identity() const noexcept { return lift.identity(); }
};

/// Reduce `problem` (which must be normalized: alpha == beta == 1) to a
/// fixed point of the enabled rules.  Deterministic: rules scan components
/// in ascending id order and break ties toward the lowest partition id.
/// Publishes presolve.{r0,r1,r2,rn,components_removed,seconds} counters to
/// util/prof when profiling is enabled.
[[nodiscard]] ReducedProblem presolve(const PartitionProblem& problem,
                                      const PresolveOptions& options = {});

}  // namespace qbp
