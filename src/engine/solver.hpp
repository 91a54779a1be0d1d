// The solver-engine layer: one interface every optimizer plugs into.
//
// The library grew four independent heuristics (Burkard QBP, GFM, GKL, SA)
// plus the multilevel V-cycle, each with its own options/result structs.
// Drivers that want to treat them interchangeably -- the parallel portfolio,
// the CLI, the experiment harness -- program against this layer instead:
//
//   * SolverResult is the normalized outcome: the incumbent record of
//     core/outcome.hpp -- the best solution by *penalized* value (always
//     set) and the best fully *feasible* incumbent (paper constraints
//     C1 + C2) when one was found -- plus the incumbent history and
//     wall-clock/iteration accounting;
//   * Solver::solve(problem, start, stop_token) runs one optimization from
//     one StartPoint.  Implementations must be `const` (no mutable state
//     across calls) so a single Solver instance can serve many concurrent
//     portfolio starts;
//   * cancellation is cooperative via std::stop_token: implementations poll
//     it at iteration granularity and return their best-so-far when it
//     fires (result.cancelled = true).
//
// Adapters for the concrete optimizers live in engine/adapters.hpp; the
// parallel multistart/portfolio driver in engine/portfolio.hpp; building a
// solver from a named spec in engine/spec.hpp.
#pragma once

#include <cstdint>
#include <stop_token>
#include <string>
#include <string_view>
#include <vector>

#include "core/outcome.hpp"
#include "core/problem.hpp"

namespace qbp::engine {

/// One start of a (multistart) run: the initial assignment plus the RNG
/// stream seed a stochastic solver should use.  Portfolio derives both
/// deterministically from the master seed and the start index, so a start's
/// outcome never depends on which thread runs it.
struct StartPoint {
  Assignment assignment;
  std::uint64_t seed = 0;
};

/// Normalized solver outcome (the common denominator of BurkardResult,
/// GfmResult, GklResult, SaResult and MultilevelResult).  For the
/// feasible-region solvers (GFM/GKL/SA) `best` equals `best_feasible` and
/// the penalized value equals the true objective (no violations).
struct SolverResult : Outcome {
  /// Name of the producing solver (adapter-provided, e.g. "qbp", "sa").
  std::string solver;

  /// Incumbent trajectory where the underlying solver records one.
  std::vector<double> history;

  /// Solver-specific progress unit (Burkard iterations, SA temperature
  /// steps, FM/KL passes).
  std::int64_t iterations = 0;
  double seconds = 0.0;
  /// The stop token fired while this run was in flight.
  bool cancelled = false;

  /// Non-empty when the solve (or its shadow audit, under throw mode)
  /// failed with an exception: carries the what() text.  Errored results
  /// are excluded from portfolio selection and counted in starts_errored.
  std::string error;
  /// The shadow validator (core/validate.hpp) audited this result and found
  /// no issue.  A failed audit lands in `error` (throw mode) or is logged
  /// and counted (log-and-count mode) instead.
  bool validated = false;
};

/// Strict "is `a` a better outcome than `b`" -- the selection rule every
/// driver shares: a feasible result beats any infeasible one; feasible
/// results compare by true objective; infeasible ones by penalized value.
/// Strictness (ties are not "better") makes first-wins scans deterministic.
[[nodiscard]] inline bool better_result(const SolverResult& a,
                                        const SolverResult& b) {
  if (a.found_feasible != b.found_feasible) return a.found_feasible;
  if (a.found_feasible) {
    return a.best_feasible_objective < b.best_feasible_objective;
  }
  return a.best_penalized < b.best_penalized;
}

class Solver {
 public:
  virtual ~Solver() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Run one optimization from `start`.  `start.assignment` must be
  /// complete (C3); it need not be feasible -- solvers that require a
  /// feasible start legalize it first (deterministically in `start.seed`).
  /// Implementations poll `stop` at iteration granularity.
  [[nodiscard]] virtual SolverResult solve(const PartitionProblem& problem,
                                           const StartPoint& start,
                                           std::stop_token stop) const = 0;

  /// Convenience overload: run to completion.
  [[nodiscard]] SolverResult solve(const PartitionProblem& problem,
                                   const StartPoint& start) const {
    return solve(problem, start, std::stop_token());
  }

  /// The penalty this solver's best_penalized values are measured in
  /// (y^T Qhat y with this embedded timing-violation cost).  The shadow
  /// validator recomputes penalized values with the same constant, so
  /// adapters with a configurable penalty must override.
  [[nodiscard]] virtual double penalized_with() const { return kPaperPenalty; }
};

}  // namespace qbp::engine
