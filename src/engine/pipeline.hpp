// SolvePipeline: the explicit normalize -> presolve -> solve(reduced) ->
// lift -> validate path every entry point shares.
//
// The pipeline wraps any Solver (or a whole portfolio of starts of one) and
// owns the instance-level work that must happen exactly once per job rather
// than once per start:
//
//   normalize   fold alpha/beta into P/B (skipped when already PP(1,1), so
//               the common case stays bit-identical to the raw solve path);
//   presolve    run core/presolve to a fixed point, producing the reduced
//               instance and the SolutionLift;
//   solve       run the wrapped solver / portfolio on the *reduced* problem
//               -- all starts share one ReducedProblem;
//   lift        map every produced result back to original-space components,
//               shift objectives by the folded constant, and recompute
//               penalized values from scratch on the original instance;
//   validate    shadow-check the lifted winner (and, when start results are
//               kept, every lifted start) against the ORIGINAL problem with
//               core/validate, firing a contract violation on any mismatch.
//
// When presolve reduces nothing the pipeline degenerates to a plain
// Portfolio::run on an untouched copy of the input -- results are
// bit-identical to not using the pipeline at all.  When RN solved the whole
// remainder exactly, the solver never runs: the portfolio collapses to a
// single synthesized result carrying the lifted exact optimum.
//
// Determinism: presolve is deterministic, the portfolio's determinism
// contract is unchanged (start points remain pure functions of (seed,
// index), now over the reduced component count), and lifting is a pure
// function of the winning result -- so the pipeline preserves bit-identical
// outcomes across thread counts.
#pragma once

#include <cstdint>

#include "core/presolve.hpp"
#include "engine/portfolio.hpp"
#include "engine/solver.hpp"

namespace qbp::engine {

struct PipelineOptions {
  /// Reduction configuration; `enabled` defaults ON at this layer (the
  /// pipeline IS the opt-in; pass enabled = false for a --presolve=off run).
  PresolveOptions presolve;
  /// Portfolio configuration for run(); also supplies the validate override
  /// used for the post-lift shadow check (nullopt = process default).
  PortfolioOptions portfolio;
};

struct PipelineResult {
  /// Portfolio outcome with every assignment, objective and history lifted
  /// to original space.  For rn_exact runs this is a synthesized
  /// single-start portfolio carrying the exact optimum.
  PortfolioResult portfolio;
  PresolveStats presolve;
  /// Presolve changed the instance (stats.components_removed > 0).
  bool reduced = false;
  /// RN solved the remainder exactly; the wrapped solver never ran.
  bool rn_exact = false;
  /// Whole-pipeline wall clock (presolve + solve + lift + validate).
  double seconds = 0.0;
};

class SolvePipeline {
 public:
  /// Normalizes and presolves `problem` once, up front.  The pipeline keeps
  /// its own copies; the caller's problem need not outlive it.
  explicit SolvePipeline(const PartitionProblem& problem,
                         PipelineOptions options = {});

  [[nodiscard]] const PartitionProblem& original() const noexcept {
    return original_;
  }
  /// The instance solvers actually run on (== an unmodified copy of
  /// original() when nothing reduced).
  [[nodiscard]] const PartitionProblem& reduced_problem() const noexcept {
    return reduced_.problem;
  }
  [[nodiscard]] const PresolveStats& presolve_stats() const noexcept {
    return reduced_.stats;
  }
  [[nodiscard]] const SolutionLift& lift() const noexcept {
    return reduced_.lift;
  }
  [[nodiscard]] bool reduced() const noexcept { return !reduced_.identity(); }

  /// `starts` runs of `solver` on the reduced instance (one presolve shared
  /// across all of them), lifted and validated.
  [[nodiscard]] PipelineResult run(const Solver& solver,
                                   std::int32_t starts) const;

  /// One run from an explicit start point (restricted into reduced space),
  /// lifted and validated.  For callers that construct their own initial
  /// solution instead of sampling portfolio starts.
  [[nodiscard]] SolverResult solve_one(const Solver& solver,
                                       const StartPoint& start) const;

 private:
  /// Lift one reduced-space result to original space in place.
  void lift_result(SolverResult& result, double penalty) const;
  /// Shadow-check a lifted result against the original problem.
  void validate_lifted(const SolverResult& result, double penalty) const;
  /// The RN exact optimum as a synthesized, lifted SolverResult.
  [[nodiscard]] SolverResult rn_result(const Solver& solver) const;

  PartitionProblem original_;
  ReducedProblem reduced_;
  PipelineOptions options_;
};

}  // namespace qbp::engine
