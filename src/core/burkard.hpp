// Generalized Burkard heuristic for the timing-embedded QBP
// (paper Section 4.2 STEP 1-8, with the Section 4.3 generalizations).
//
// The iteration linearizes min y^T Qhat y (Balas & Mazzola, Theorem 3 of
// the paper) around the current solution u^(k):
//
//   STEP 3   eta_s = sum_r qhat_{rs} u_r          (sparse gather)
//            xi    = sum_r omega_r u_r
//   STEP 4   z     = min_{u in S} eta . u          -> a GAP solve
//   STEP 5   h    += eta / max(1, |z - xi|)        (direction accumulation)
//   STEP 6   u'    = argmin_{u in S} h . u         -> a GAP solve
//   STEP 7   keep the best u seen (by y^T Qhat y)
//
// Differences from Burkard's original:
//   * S is {y : C1 (capacities) and C3 (GUB)} -- the inner subproblems are
//     Generalized Assignment Problems solved with the Martello-Toth-style
//     heuristic (assign/gap.hpp) instead of Linear Assignment Problems;
//   * Qhat is implicit and sparse: STEP 3 costs O((nnz(A)+nnz(Dc)) * M)
//     rather than (MN)^2 multiplications -- and only once per solve.  eta
//     is read off the incident rows of the solve's DeltaEvaluator (their
//     incoming parts plus the alpha * p diagonal): the rows are built at
//     iteration 1, and the polish keeps them at the current iterate, so a
//     later STEP 3 patches only what moved since (a restart kick, an
//     unpolished iterate) and copies.  The optional eq. (3) omega term is
//     added to the vector the GAP reads;
//   * alongside the best penalized incumbent the solver tracks the best
//     *feasible* incumbent (C1 and C2), because Theorem 2 only certifies
//     minimizers that come out violation-free; BurkardResult carries the
//     pair as the shared record of core/outcome.hpp;
//   * each STEP 6 iterate is optionally "polished" by a few greedy
//     single-move descent sweeps on the penalized objective before STEP 7
//     evaluates it (polish_sweeps).  The listed algorithm evaluates raw GAP
//     solutions, which on large tight instances oscillate a few dozen
//     violations away from feasibility; the polish converts the line
//     search's iterates into certified local minima at negligible cost and
//     is what the paper's own "enhancement" framing invites.  Setting
//     polish_sweeps = 0 recovers the literal listing (the polish study of
//     bench_runner --suite ablation).
//
// "The search stops after a predetermined number of iterations.  The best
// result seen so far becomes the solution" -- iteration count is the only
// stopping rule, giving the user precise control over runtime.
#pragma once

#include <cstdint>
#include <optional>
#include <stop_token>
#include <vector>

#include "assign/gap.hpp"
#include "core/outcome.hpp"
#include "core/problem.hpp"

namespace qbp {

struct BurkardOptions {
  BurkardOptions() {
    // STEP 6 produces the next iterate: worth a strong argmin (pairwise
    // swaps matter under tight capacities).  STEP 4 only contributes the
    // scalar z to the STEP 5 normalization: a cheap solve suffices.
    gap_step6.improvement_passes = 4;
    gap_step6.swap_improvement = true;
    gap_step4.improvement_passes = 1;
    gap_step4.swap_improvement = false;
  }

  /// N_iterations of STEP 8.  The paper runs 100 per circuit.
  std::int32_t iterations = 100;
  /// Embedded timing-violation cost; kPaperPenalty = 50 by default.
  double penalty = kPaperPenalty;
  /// Include the omega_s u_s term in eta (equation (3) of the paper).  The
  /// listed STEP 3 omits it; both variants are supported, and the penalty
  /// study of bench_runner --suite ablation compares them.
  /// Default follows the listed algorithm (the eq.-3 variant tends to
  /// freeze the iteration at its starting point on large instances).
  bool eta_includes_omega = false;
  /// Inner GAP solver knobs for STEP 6 (strong) and STEP 4 (cheap).
  GapOptions gap_step6;
  GapOptions gap_step4;
  /// Iterate polishing (our enhancement, see header note): after STEP 6,
  /// run up to this many greedy single-move descent sweeps on the
  /// *penalized* objective (capacity-feasible moves only) before STEP 7
  /// evaluates the iterate.  0 reproduces the literal STEP 1-8 listing;
  /// the polish study of bench_runner --suite ablation measures the
  /// difference.
  std::int32_t polish_sweeps = 3;
  /// Read by nothing: solve_qbp runs on the caller's thread.  Kept only
  /// because the benchmark program still sets it.
  std::int32_t inner_threads = 1;
  /// Restart the line search every `restart_period` iterations: h is reset
  /// to zero and the iteration continues from the best incumbent so far.
  /// Burkard's accumulation makes h a time-average -- after it converges to
  /// one mean field the iterates stop moving; restarting re-aims the search
  /// from the incumbent, after kicking 10% of the components to random
  /// capacity-feasible partitions.  0 disables (the literal listing).
  std::int32_t restart_period = 12;
  /// Record the incumbent penalized value per iteration (for convergence
  /// plots); small, on by default.
  bool record_history = true;
  /// Cooperative cancellation, polled between iterations.  The default
  /// token never fires; the engine adapter passes the portfolio's token
  /// here to cancel stragglers.
  std::stop_token stop;
};

/// The incumbent pair (core/outcome.hpp) plus the run's accounting.
struct BurkardResult : Outcome {
  std::int32_t iterations_run = 0;
  /// Inner GAP solves whose result violated C1 (they still steer the line
  /// search but are never certified as incumbents).
  std::int32_t infeasible_inner_solves = 0;
  /// Incumbent penalized value after each iteration (empty unless
  /// record_history).
  std::vector<double> history;
  /// Wall clock of the solve.
  double seconds = 0.0;
};

/// Run the heuristic from `initial` (any complete assignment -- Section 5:
/// "QBP can start from any random solution") on the instance as given.
/// Presolve, multistart and lifting live one layer up, in
/// engine::SolvePipeline and engine::Portfolio.
[[nodiscard]] BurkardResult solve_qbp(const PartitionProblem& problem,
                                      const Assignment& initial,
                                      const BurkardOptions& options = {});

/// STEP 2's bounds omega_r >= max_{y in S} sum_s qhat(r, s) y_s of
/// equation (2), one per flat index r = i + j * M; solve_qbp computes them
/// once per solve.  Exploits C3: each other component contributes its worst
/// single entry of Q-hat's (r, component) block.
[[nodiscard]] std::vector<double> omega_bounds(const PartitionProblem& problem,
                                               double penalty);

class DeltaEvaluator;

/// The iterate polish as a standalone primitive: up to `max_sweeps` rounds
/// of best-improvement moves plus first-improvement swaps (connected pairs,
/// constrained pairs, and a seeded random sample) descending the *penalized*
/// objective, capacity C1 invariant throughout.  Serial and deterministic
/// in `sweep_seed`.  `evaluator` (on `problem`, with the penalty to
/// descend) follows `u` on entry -- its rows are patched for the
/// components that moved since the last polish, not rebuilt -- and every
/// commit then patches them, so a swap evaluation is O(1) row lookups plus
/// the a-b pair term.  Used after STEP 6 inside solve_qbp (one evaluator
/// for the whole solve) and as the per-level refinement of the multilevel
/// V-cycle.
void polish_iterate(const PartitionProblem& problem, DeltaEvaluator& evaluator,
                    Assignment& u, std::int32_t max_sweeps,
                    std::uint64_t sweep_seed);

}  // namespace qbp
