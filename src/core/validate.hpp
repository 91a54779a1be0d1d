// Shadow validator: independent re-verification of solver outcomes.
//
// Every solver in the library reports its incumbent record
// (core/outcome.hpp), computed incrementally -- a best assignment, its
// penalized value y^T Qhat y, and (when found) a feasible incumbent with
// its true objective.  Incremental bookkeeping is exactly where silent
// corruption hides: a stale delta cache, a capacity ledger that drifted, an
// objective accumulated with a sign error.  The shadow validator recomputes
// everything from scratch and compares:
//
//   * structural feasibility -- C3 completeness, partition ids in range,
//     and (for a claimed-feasible incumbent) C1 capacity and C2 timing
//     checked against the problem definition, not the solver's ledger;
//   * reported numbers -- the penalized value and true objective recomputed
//     via PartitionProblem::penalized_value / objective and compared within
//     a tolerance;
//   * incremental machinery -- sampled moves and swaps, each evaluated
//     three ways: DeltaEvaluator's cached path (the move_deltas row, or
//     cached_swap_delta for a swap), its one-off move_delta / swap_delta,
//     and a full from-scratch re-evaluation of the mutated assignment.
//
// A non-empty report routed through enforce() fires the contract framework
// (util/check.hpp), so the configured fail mode decides what a violation
// does: abort (tests, CLI), throw qbp::ContractViolation (the daemon fails
// one job and survives), or log-and-count (audit mode).
//
// The validator is O(full re-evaluation) per call -- run it per solver
// result, never per iteration: engine::audit_result runs both checks on
// every portfolio start, on every answer of SolvePipeline's post-solve
// stage (solve_one's included) and on ECO's warm answer.  It is off by
// default; the QBPART_VALIDATE CMake option flips the compile-time default,
// set_validation_enabled() flips it at runtime, and the service protocol's
// per-job "validate" flag overrides it for one job (see
// engine/portfolio.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/outcome.hpp"
#include "core/problem.hpp"

namespace qbp {

/// Process-wide default for shadow validation.  Compile-time default is ON
/// when built with -DQBPART_VALIDATE=ON, otherwise OFF.
[[nodiscard]] bool validation_enabled() noexcept;
void set_validation_enabled(bool enabled) noexcept;

struct ValidateOptions {
  /// Penalty the reported penalized values are measured in (must match the
  /// solver that produced them; Solver::penalized_with() reports it).
  double penalty = kPaperPenalty;
  /// Tolerance for recomputed-vs-reported comparisons:
  /// |a - b| <= tolerance * max(1, |a|, |b|).
  double tolerance = 1e-6;
  /// Number of sampled moves (and half as many swaps) for the
  /// DeltaEvaluator cross-check.
  std::int32_t delta_samples = 16;
  /// Seed of the sampling stream (deterministic validator).
  std::uint64_t seed = 1993;
};

struct ValidationReport {
  std::vector<std::string> issues;

  [[nodiscard]] bool ok() const noexcept { return issues.empty(); }
  /// All issues joined with "; " (empty string when ok).
  [[nodiscard]] std::string to_string() const;
  /// Append another report's issues to this one.
  void merge(ValidationReport other);
};

/// Recompute feasibility and objectives of a solver's incumbent record
/// from scratch and compare with the reported numbers: `best` and its
/// penalized value always, the feasible incumbent when `found_feasible`.
/// Does not sample deltas (see validate_deltas).
[[nodiscard]] ValidationReport validate_outcome(
    const PartitionProblem& problem, const Outcome& reported,
    const ValidateOptions& options = {});

/// Cross-check the incremental delta machinery at `assignment`: for sampled
/// moves and swaps, DeltaEvaluator's cached value (move_deltas row,
/// cached_swap_delta) and one-off value (move_delta, swap_delta) must both
/// agree with a full from-scratch re-evaluation of the mutated assignment
/// through PartitionProblem::penalized_value.
[[nodiscard]] ValidationReport validate_deltas(
    const PartitionProblem& problem, const Assignment& assignment,
    const ValidateOptions& options = {});

/// Route a report through the contract framework: a non-ok report fires one
/// contract violation carrying `context` and every issue, honoring the
/// configured fail mode (abort / throw / log-and-count).  No-op when ok.
void enforce(const ValidationReport& report, std::string_view context);

}  // namespace qbp
