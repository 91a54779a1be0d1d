#include "core/burkard.hpp"

#include <cmath>

#include "core/delta_evaluator.hpp"
#include "core/qhat.hpp"
#include "util/log.hpp"
#include "util/prof.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#include "util/check.hpp"

namespace qbp {

namespace {

/// Fraction of the components a restart kicks (see the restart below).
constexpr double kRestartPerturbation = 0.10;

}  // namespace

/// Greedy descent on the penalized objective: per round, a best-move sweep
/// over every (component, partition) pair, then a first-improvement swap
/// sweep over connected pairs, constrained pairs and a random pair sample.
/// Capacity C1 stays invariant throughout; timing enters via the penalty.
/// All deltas come off the shared DeltaEvaluator's cached rows: the move
/// sweep reads a component's M deltas from its row, a swap reads two rows
/// plus the a-b pair term (cached_swap_delta), and commits patch the rows
/// that depend on the mover.  Declared in burkard.hpp: the multilevel
/// V-cycle uses the same descent as its per-level refinement.
void polish_iterate(const PartitionProblem& problem, DeltaEvaluator& evaluator,
                    Assignment& u, std::int32_t max_sweeps,
                    std::uint64_t sweep_seed) {
  if (max_sweeps <= 0) return;
  evaluator.follow(u);  // patch the rows for what moved since the last polish
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  const auto& sizes = problem.netlist().sizes();
  CapacityLedger ledger(u, sizes, problem.topology().capacities());
  constexpr double kEps = 1e-9;
  Rng rng(sweep_seed);

  const auto try_swap = [&](std::int32_t a, std::int32_t b) {
    if (a == b || u[a] == u[b]) return false;
    const double sa = sizes[static_cast<std::size_t>(a)];
    const double sb = sizes[static_cast<std::size_t>(b)];
    if (ledger.usage(u[a]) - sa + sb >
        ledger.capacity(u[a]) + CapacityLedger::kTolerance) {
      return false;
    }
    if (ledger.usage(u[b]) - sb + sa >
        ledger.capacity(u[b]) + CapacityLedger::kTolerance) {
      return false;
    }
    if (evaluator.cached_swap_delta(u, a, b) >= -kEps) return false;
    const PartitionId pa = u[a];
    const PartitionId pb = u[b];
    ledger.remove(pa, sa);
    ledger.add(pb, sa);
    ledger.remove(pb, sb);
    ledger.add(pa, sb);
    evaluator.commit_swap(u, a, b);
    return true;
  };

  const auto& adjacency = problem.netlist().connection_matrix();
  for (std::int32_t sweep = 0; sweep < max_sweeps; ++sweep) {
    QBP_PROF_SCOPE("polish.sweep");
    bool improved = false;

    // Move sweep: best capacity-feasible improving move per component,
    // selected from the evaluator's cached all-targets row.
    for (std::int32_t j = 0; j < n; ++j) {
      const std::span<const double> deltas = evaluator.move_deltas(u, j);
      PartitionId best_target = -1;
      double best_delta = -kEps;
      for (PartitionId i = 0; i < m; ++i) {
        if (i == u[j]) continue;
        if (!ledger.fits(i, sizes[static_cast<std::size_t>(j)])) continue;
        const double delta = deltas[static_cast<std::size_t>(i)];
        if (delta < best_delta) {
          best_delta = delta;
          best_target = i;
        }
      }
      if (best_target >= 0) {
        ledger.remove(u[j], sizes[static_cast<std::size_t>(j)]);
        ledger.add(best_target, sizes[static_cast<std::size_t>(j)]);
        evaluator.commit_move(u, j, best_target);
        improved = true;
      }
    }

    // Swap sweep (the move class GKL uses): connected pairs, constrained
    // pairs, and a random sample for pure capacity exchanges.
    for (std::int32_t a = 0; a < n; ++a) {
      for (const std::int32_t b : adjacency.row_indices(a)) {
        if (b > a && try_swap(a, b)) improved = true;
      }
      for (const std::int32_t b : problem.timing().partners(a)) {
        if (b > a && try_swap(a, b)) improved = true;
      }
    }
    for (std::int32_t k = 0; k < n; ++k) {
      const auto a = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      const auto b = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      if (try_swap(a, b)) improved = true;
    }

    if (!improved) break;
  }
}

BurkardResult solve_qbp(const PartitionProblem& problem, const Assignment& initial,
                        const BurkardOptions& options) {
  QBP_CHECK_EQ(initial.num_components(), problem.num_components());
  QBP_CHECK(initial.is_complete()) << "the starting solution must satisfy C3";

  const Timer timer;
  const QhatMatrix qhat(problem, options.penalty);
  DeltaEvaluator evaluator(problem, options.penalty);
  const std::vector<double> omega = qhat.omega();  // STEP 2 bounds

  // The flat eta / h vectors (r = i + j * M) are exactly the column-major
  // layout the GAP heuristic scans, so they bind zero-copy via cost_flat --
  // no per-iteration reshape allocation.
  GapProblem gap;
  gap.flat_agents = problem.num_partitions();
  gap.sizes = problem.netlist().sizes();
  gap.capacities = problem.topology().capacities();

  BurkardResult result;
  // STEP 2: u* <- u(1), z* <- u*^T Qhat u*.
  Assignment u = initial;
  result.best = u;
  result.best_penalized = qhat.penalized_value(u);

  const auto consider_feasible = [&](const Assignment& candidate) {
    if (!problem.satisfies_capacity(candidate) ||
        !problem.satisfies_timing(candidate)) {
      return;
    }
    const double objective = problem.objective(candidate);
    if (!result.found_feasible || objective < result.best_feasible_objective) {
      result.found_feasible = true;
      result.best_feasible = candidate;
      result.best_feasible_objective = objective;
    }
  };
  consider_feasible(u);

  const std::int64_t flat_size = problem.flat_size();
  // STEP 3 reads eta off the evaluator's rows, which the polish already
  // moved to u; only the components that moved since (a restart kick, an
  // unpolished iterate) are patched there.
  std::vector<double> eta(static_cast<std::size_t>(flat_size), 0.0);
  std::vector<double> h(static_cast<std::size_t>(flat_size), 0.0);  // STEP 1

  for (std::int32_t k = 1; k <= options.iterations; ++k) {
    // STEP 3: eta gather and xi.
    double xi = 0.0;
    {
      QBP_PROF_SCOPE("burkard.step3_eta");
      evaluator.eta(u, eta);
      if (options.eta_includes_omega) {
        for (std::int32_t j = 0; j < problem.num_components(); ++j) {
          const std::int64_t r = problem.flat_index(u[j], j);
          eta[static_cast<std::size_t>(r)] += omega[static_cast<std::size_t>(r)];
        }
      }
      for (std::int32_t j = 0; j < problem.num_components(); ++j) {
        xi += omega[static_cast<std::size_t>(problem.flat_index(u[j], j))];
      }
    }

    // STEP 4: z = min_{u in S} eta . u  (a GAP; only the value is used).
    double z = 0.0;
    {
      QBP_PROF_SCOPE("burkard.step4_gap");
      gap.cost_flat = std::span<const double>(eta);
      const GapResult step4 = solve_gap(gap, options.gap_step4);
      if (!step4.feasible) ++result.infeasible_inner_solves;
      z = step4.cost;
    }

    // STEP 5: accumulate the normalized direction, h += eta * scale.
    {
      QBP_PROF_SCOPE("burkard.step5_h");
      const double scale = 1.0 / std::max(1.0, std::abs(z - xi));
      for (std::size_t r = 0; r < h.size(); ++r) h[r] += scale * eta[r];
    }

    // STEP 6: u(k+1) = argmin_{u in S} h . u.
    std::optional<GapResult> step6_result;
    {
      QBP_PROF_SCOPE("burkard.step6_gap");
      gap.cost_flat = std::span<const double>(h);
      step6_result = solve_gap(gap, options.gap_step6);
    }
    const GapResult& step6 = *step6_result;
    if (!step6.feasible) ++result.infeasible_inner_solves;
    Assignment next(step6.agent_of_item, problem.num_partitions());

    // Enhancement: polish the iterate into a penalized local minimum
    // (capacity-preserving moves only) before evaluating it.
    if (step6.feasible) {
      polish_iterate(problem, evaluator, next, options.polish_sweeps,
                     0x9b1eu ^ static_cast<std::uint64_t>(k));
    }

    // STEP 7: incumbent update by penalized value; feasible incumbent is
    // tracked separately (Theorem 2 certification needs C2 to hold).
    const double penalized = qhat.penalized_value(next);
    if (penalized < result.best_penalized) {
      result.best_penalized = penalized;
      result.best = next;
    }
    if (step6.feasible) consider_feasible(next);

    if (options.record_history) result.history.push_back(result.best_penalized);
    result.iterations_run = k;
    u = std::move(next);

    // Periodic restart: re-aim the line search at the incumbent, with
    // kRestartPerturbation of the components kicked to random
    // capacity-feasible partitions, so successive rounds explore different
    // basins instead of re-converging.
    if (options.restart_period > 0 && k % options.restart_period == 0) {
      std::fill(h.begin(), h.end(), 0.0);
      u = result.found_feasible ? result.best_feasible : result.best;
      Rng kick_rng(0xfeedu ^ static_cast<std::uint64_t>(k));
      const auto& sizes = problem.netlist().sizes();
      CapacityLedger ledger(u, sizes, problem.topology().capacities());
      const auto kicks = static_cast<std::int32_t>(
          kRestartPerturbation * problem.num_components());
      for (std::int32_t kick = 0; kick < kicks; ++kick) {
        const auto j = static_cast<std::int32_t>(kick_rng.next_below(
            static_cast<std::uint64_t>(problem.num_components())));
        const auto target = static_cast<PartitionId>(kick_rng.next_below(
            static_cast<std::uint64_t>(problem.num_partitions())));
        if (target == u[j] ||
            !ledger.fits(target, sizes[static_cast<std::size_t>(j)])) {
          continue;
        }
        ledger.remove(u[j], sizes[static_cast<std::size_t>(j)]);
        ledger.add(target, sizes[static_cast<std::size_t>(j)]);
        u.set(j, target);
      }
      // Descend from the kicked point (iterated local search): the kick
      // only diversifies if the following descent happens before the
      // global field re-absorbs it.
      polish_iterate(problem, evaluator, u, options.polish_sweeps,
                     0x15edu ^ static_cast<std::uint64_t>(k));
      const double kicked = qhat.penalized_value(u);
      if (kicked < result.best_penalized) {
        result.best_penalized = kicked;
        result.best = u;
      }
      consider_feasible(u);
    }

    log::debug("burkard iter ", k, ": penalized incumbent ",
               result.best_penalized, ", step-4 z = ", z);

    if (options.should_stop && options.should_stop()) break;
  }

  result.seconds = timer.seconds();
  return result;
}

}  // namespace qbp
