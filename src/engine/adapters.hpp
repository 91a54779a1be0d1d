// Solver-interface adapters for every optimizer in the library.
//
// Each adapter owns a frozen copy of the underlying solver's options and is
// stateless across solve() calls, so one instance can serve any number of
// concurrent portfolio starts.  Cancellation: each options struct carries a
// std::stop_token, which the adapter sets to the one solve() was given.
// Every adapter hands the solver's incumbent record (core/outcome.hpp) up
// as it is; a feasible-region walk's answer is recorded with outcome_of.
//
// Feasible-start solvers (GFM/GKL/SA -- their walks never leave the
// feasible region) legalize an infeasible StartPoint deterministically:
// min-conflicts timing repair from the given assignment when capacity
// already holds, otherwise the paper's B = 0 construction (Section 5), both
// seeded by StartPoint::seed.  If no feasible start can be built the
// adapter returns found_feasible = false with the start itself as `best`.
// Their penalized value is their objective, and that fallback's is measured
// at the base's penalized_with(), kPaperPenalty.
#pragma once

#include "baselines/gfm.hpp"
#include "baselines/gkl.hpp"
#include "baselines/sa.hpp"
#include "core/burkard.hpp"
#include "core/multilevel.hpp"
#include "engine/solver.hpp"

namespace qbp::engine {

/// The paper's generalized Burkard heuristic ("qbp").
class BurkardSolver final : public Solver {
 public:
  explicit BurkardSolver(BurkardOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string_view name() const override { return "qbp"; }
  using Solver::solve;
  [[nodiscard]] SolverResult solve(const PartitionProblem& problem,
                                   const StartPoint& start,
                                   std::stop_token stop) const override;
  [[nodiscard]] double penalized_with() const override {
    return options_.penalty;
  }

 private:
  BurkardOptions options_;
};

/// Multilevel V-cycle around the Burkard heuristic ("multilevel").
class MultilevelSolver final : public Solver {
 public:
  explicit MultilevelSolver(MultilevelOptions options = {})
      : options_(options) {}
  [[nodiscard]] std::string_view name() const override { return "multilevel"; }
  using Solver::solve;
  [[nodiscard]] SolverResult solve(const PartitionProblem& problem,
                                   const StartPoint& start,
                                   std::stop_token stop) const override;
  /// The finest-level result is polished with the refinement penalty.
  [[nodiscard]] double penalized_with() const override {
    return options_.refine_solver.penalty;
  }

 private:
  MultilevelOptions options_;
};

/// Generalized Fiduccia-Mattheyses baseline ("gfm").
class GfmSolver final : public Solver {
 public:
  explicit GfmSolver(GfmOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string_view name() const override { return "gfm"; }
  using Solver::solve;
  [[nodiscard]] SolverResult solve(const PartitionProblem& problem,
                                   const StartPoint& start,
                                   std::stop_token stop) const override;

 private:
  GfmOptions options_;
};

/// Generalized Kernighan-Lin baseline ("gkl").
class GklSolver final : public Solver {
 public:
  explicit GklSolver(GklOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string_view name() const override { return "gkl"; }
  using Solver::solve;
  [[nodiscard]] SolverResult solve(const PartitionProblem& problem,
                                   const StartPoint& start,
                                   std::stop_token stop) const override;

 private:
  GklOptions options_;
};

/// Simulated-annealing baseline ("sa").  StartPoint::seed drives the walk,
/// overriding SaOptions::seed.
class SaSolver final : public Solver {
 public:
  explicit SaSolver(SaOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string_view name() const override { return "sa"; }
  using Solver::solve;
  [[nodiscard]] SolverResult solve(const PartitionProblem& problem,
                                   const StartPoint& start,
                                   std::stop_token stop) const override;

 private:
  SaOptions options_;
};

}  // namespace qbp::engine
