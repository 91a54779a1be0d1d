#include "core/burkard.hpp"

#include <algorithm>
#include <cmath>

#include "core/delta_evaluator.hpp"
#include "core/placement.hpp"
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

std::vector<double> omega_bounds(const PartitionProblem& problem,
                                 double penalty) {
  const std::int32_t m = problem.num_partitions();
  const std::int32_t n = problem.num_components();
  std::vector<double> omega(static_cast<std::size_t>(problem.flat_size()), 0.0);

  const auto& adjacency = problem.netlist().connection_matrix();
  const auto& topology = problem.topology();
  const double beta = problem.beta();

  // Worst-case wire cost from partition i1 to anywhere.
  std::vector<double> max_b(static_cast<std::size_t>(m), 0.0);
  for (std::int32_t i1 = 0; i1 < m; ++i1) {
    for (std::int32_t i2 = 0; i2 < m; ++i2) {
      max_b[static_cast<std::size_t>(i1)] =
          std::max(max_b[static_cast<std::size_t>(i1)], topology.wire_cost(i1, i2));
    }
  }

  for (std::int32_t j1 = 0; j1 < n; ++j1) {
    const auto neighbors = adjacency.row_indices(j1);
    const auto wires = adjacency.row_values(j1);
    const auto partners = problem.timing().partners(j1);
    for (PartitionId i1 = 0; i1 < m; ++i1) {
      // Under C3 every other component contributes exactly one entry of its
      // M-block; bound each block's max.  Constrained pairs can hit the
      // penalty; connected pairs can hit beta * a * max_b.
      double bound = problem.alpha() * problem.linear_cost(i1, j1);
      std::size_t wire_at = 0;
      std::size_t partner_at = 0;
      while (wire_at < neighbors.size() || partner_at < partners.size()) {
        const std::int32_t next_wire =
            wire_at < neighbors.size() ? neighbors[wire_at] : n;
        const std::int32_t next_partner =
            partner_at < partners.size() ? partners[partner_at] : n;
        if (next_wire < next_partner) {
          bound += beta * wires[wire_at] * max_b[static_cast<std::size_t>(i1)];
          ++wire_at;
        } else if (next_partner < next_wire) {
          bound += penalty;
          ++partner_at;
        } else {
          bound += std::max(penalty, beta * wires[wire_at] *
                                         max_b[static_cast<std::size_t>(i1)]);
          ++wire_at;
          ++partner_at;
        }
      }
      omega[static_cast<std::size_t>(problem.flat_index(i1, j1))] = bound;
    }
  }
  return omega;
}

/// Greedy descent on the penalized objective: per round, a best-move sweep
/// over every (component, partition) pair, then a first-improvement swap
/// sweep over connected pairs, constrained pairs and a random pair sample.
/// Capacity C1 stays invariant throughout; timing enters via the penalty.
/// All deltas come off the shared DeltaEvaluator's cached rows: the move
/// sweep reads a component's M deltas from its row, a swap reads two rows
/// plus the a-b pair term (cached_swap_delta), and the placement commits
/// each move through the evaluator, patching the rows that depend on the
/// mover.  Declared in burkard.hpp: the multilevel V-cycle uses the same
/// descent as its per-level refinement.
void polish_iterate(const PartitionProblem& problem, DeltaEvaluator& evaluator,
                    Assignment& u, std::int32_t max_sweeps,
                    std::uint64_t sweep_seed) {
  if (max_sweeps <= 0) return;
  evaluator.follow(u);  // patch the rows for what moved since the last polish
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  Placement placement(problem, u);
  placement.attach(evaluator);
  constexpr double kEps = 1e-9;
  Rng rng(sweep_seed);

  const auto commit_if_improving = [&](std::int32_t a, std::int32_t b,
                                       double delta) {
    if (delta >= -kEps) return false;
    placement.swap(a, b);
    return true;
  };

  const auto& adjacency = problem.netlist().connection_matrix();
  const auto& timing = problem.timing();
  for (std::int32_t sweep = 0; sweep < max_sweeps; ++sweep) {
    QBP_PROF_SCOPE("polish.sweep");
    bool improved = false;

    // Move sweep: best capacity-feasible improving move per component,
    // selected from the evaluator's cached all-targets row.  The target
    // test and the delta comparison are joined without a branch per
    // candidate.
    for (std::int32_t j = 0; j < n; ++j) {
      const std::span<const double> deltas = evaluator.move_deltas(u, j);
      const PartitionId from = u[j];
      PartitionId best_target = -1;
      double best_delta = -kEps;
      for (PartitionId i = 0; i < m; ++i) {
        const double delta = deltas[static_cast<std::size_t>(i)];
        const bool better = (i != from) & placement.fits(j, i) &
                            (delta < best_delta);
        best_delta = better ? delta : best_delta;
        best_target = better ? i : best_target;
      }
      if (best_target >= 0) {
        placement.move(j, best_target);
        improved = true;
      }
    }

    // Swap sweep (the move class GKL uses): connected pairs, constrained
    // pairs, and a random sample for pure capacity exchanges.  The two pair
    // loops read their own row's value at k and walk a's other row for the
    // pair's other value, so their swaps look up neither wire count nor
    // bound; only the sampled pairs do.  Until a's row commits a swap, the
    // constrained loop skips the partners that are also wired: the wired
    // loop just scored each in the same state, with the same wire count and
    // bound, and did not commit it.  Both loops start past b = a (rows are
    // ascending) and test a partner with a's Placement::SwapRow, taken
    // again after each commit.
    for (std::int32_t a = 0; a < n; ++a) {
      const auto neighbors = adjacency.row_indices(a);
      const auto wires = adjacency.row_values(a);
      const auto partners = timing.partners(a);
      const auto bounds = timing.bounds(a);
      Placement::SwapRow row = placement.swap_row(a);
      const auto commit_in_row = [&](std::int32_t b, double delta) {
        if (!commit_if_improving(a, b, delta)) return false;
        row = placement.swap_row(a);
        return true;
      };
      bool row_swapped = false;
      RowCursor<double> bound_of(partners, bounds);
      const auto first_wired = static_cast<std::size_t>(
          std::upper_bound(neighbors.begin(), neighbors.end(), a) -
          neighbors.begin());
      for (std::size_t k = first_wired; k < neighbors.size(); ++k) {
        const std::int32_t b = neighbors[k];
        if (!row.admits(b)) continue;
        const double bound =
            bound_of.value_at(b, TimingConstraints::kUnconstrained);
        if (commit_in_row(
                b, evaluator.cached_swap_delta(u, a, b, wires[k], bound))) {
          row_swapped = true;
        }
      }
      RowCursor<std::int32_t> wires_of(neighbors, wires);
      const auto first_partner = static_cast<std::size_t>(
          std::upper_bound(partners.begin(), partners.end(), a) -
          partners.begin());
      for (std::size_t k = first_partner; k < partners.size(); ++k) {
        const std::int32_t b = partners[k];
        if (!row.admits(b) || (!row_swapped && wires_of.contains(b))) continue;
        if (commit_in_row(
                b, evaluator.cached_swap_delta(u, a, b, wires_of.value_at(b, 0),
                                               bounds[k]))) {
          row_swapped = true;
        }
      }
      improved = improved || row_swapped;
    }
    for (std::int32_t k = 0; k < n; ++k) {
      const auto a = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      const auto b = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      if (placement.swap_row(a).admits(b) &&
          commit_if_improving(a, b, evaluator.cached_swap_delta(u, a, b))) {
        improved = true;
      }
    }

    if (!improved) break;
  }
}

BurkardResult solve_qbp(const PartitionProblem& problem, const Assignment& initial,
                        const BurkardOptions& options) {
  QBP_CHECK_EQ(initial.num_components(), problem.num_components());
  QBP_CHECK(initial.is_complete()) << "the starting solution must satisfy C3";

  const Timer timer;
  DeltaEvaluator evaluator(problem, options.penalty);
  const std::vector<double> omega = omega_bounds(problem, options.penalty);

  // The flat eta / h vectors (r = i + j * M) are exactly the column-major
  // layout the GAP heuristic scans, so they bind zero-copy as its cost --
  // no per-iteration reshape allocation.
  GapProblem gap;
  gap.agents = problem.num_partitions();
  gap.sizes = problem.netlist().sizes();
  gap.capacities = problem.topology().capacities();

  BurkardResult result;
  // STEP 2: u* <- u(1), z* <- u*^T Qhat u*.
  Assignment u = initial;
  result.best = u;
  result.best_penalized = problem.penalized_value(u, options.penalty);

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
      gap.cost = std::span<const double>(eta);
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
      gap.cost = std::span<const double>(h);
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
    const double penalized = problem.penalized_value(next, options.penalty);
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
      {
        Placement placement(problem, u);
        Rng kick_rng(0xfeedu ^ static_cast<std::uint64_t>(k));
        const auto kicks = static_cast<std::int32_t>(
            kRestartPerturbation * problem.num_components());
        for (std::int32_t kick = 0; kick < kicks; ++kick) {
          const auto j = static_cast<std::int32_t>(kick_rng.next_below(
              static_cast<std::uint64_t>(problem.num_components())));
          const auto target = static_cast<PartitionId>(kick_rng.next_below(
              static_cast<std::uint64_t>(problem.num_partitions())));
          if (placement.fits(j, target)) placement.move(j, target);
        }
      }
      // Descend from the kicked point (iterated local search): the kick
      // only diversifies if the following descent happens before the
      // global field re-absorbs it.
      polish_iterate(problem, evaluator, u, options.polish_sweeps,
                     0x15edu ^ static_cast<std::uint64_t>(k));
      const double kicked = problem.penalized_value(u, options.penalty);
      if (kicked < result.best_penalized) {
        result.best_penalized = kicked;
        result.best = u;
      }
      consider_feasible(u);
    }

    log::debug("burkard iter ", k, ": penalized incumbent ",
               result.best_penalized, ", step-4 z = ", z);

    if (options.stop.stop_requested()) break;
  }

  result.seconds = timer.seconds();
  return result;
}

}  // namespace qbp
