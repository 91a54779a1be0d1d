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
//   lift +      one post-solve step every answer passes (each kept start
//   validate    of run() and its winner, solve_one()'s result, RN's
//               optimum): when presolve reduced the instance (or RN solved
//               it), map the result back to original-space components,
//               shift objectives by the folded constant and recompute the
//               penalized value on the original instance; then, with shadow
//               validation on, audit it against the ORIGINAL problem
//               (engine::audit_result), firing a contract violation on any
//               mismatch.  A start the portfolio already audited against an
//               unreduced copy is not audited twice.
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
  /// to original space.  When RN solved the remainder exactly this is a
  /// synthesized single-start portfolio carrying the exact optimum.
  PortfolioResult portfolio;
  PresolveStats presolve;
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
  /// across all of them); every kept start and the winner pass the
  /// post-solve stage.  Every start is the portfolio's seed-derived random
  /// one; a caller with its own initial assignment uses solve_one.
  [[nodiscard]] PipelineResult run(const Solver& solver,
                                   std::int32_t starts) const;

  /// One run from an explicit start point (restricted into reduced space),
  /// through the same post-solve stage: lifted, and audited when
  /// validation is on.  For callers that construct their own initial
  /// solution instead of sampling portfolio starts.
  [[nodiscard]] SolverResult solve_one(const Solver& solver,
                                       const StartPoint& start) const;

 private:
  /// The post-solve stage (header note): lift `result` in place when its
  /// answer lives in reduced space, then audit it against the original
  /// problem when validation is on, with `penalty` the solver's
  /// penalized_with().  A skipped slot is left as it is, and an errored
  /// one is not audited.
  void post_solve(SolverResult& result, double penalty) const;
  /// The RN exact optimum as a synthesized reduced-space SolverResult.
  [[nodiscard]] SolverResult rn_result(const Solver& solver) const;

  PartitionProblem original_;
  ReducedProblem reduced_;
  PipelineOptions options_;
};

}  // namespace qbp::engine
