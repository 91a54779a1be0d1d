#include "core/multilevel.hpp"

#include <algorithm>
#include <numeric>

#include "core/delta_evaluator.hpp"
#include "core/qhat.hpp"
#include "core/repair.hpp"
#include "util/prof.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#include "util/check.hpp"

namespace qbp {

CoarseProblem coarsen(const PartitionProblem& problem,
                      const CoarsenOptions& options) {
  QBP_PROF_SCOPE("multilevel.coarsen");
  const std::int32_t n = problem.num_components();
  const auto& adjacency = problem.netlist().connection_matrix();
  const auto& sizes = problem.netlist().sizes();

  double max_capacity = 0.0;
  for (const double c : problem.topology().capacities()) {
    max_capacity = std::max(max_capacity, c);
  }
  const double size_limit = max_capacity * options.max_cluster_capacity_fraction;

  // Heavy-edge matching, deterministic in the seed.  Each round has two
  // phases: a PROPOSAL scan where every unmatched vertex picks its heaviest
  // still-unmatched, size-feasible neighbor (a pure function of the round's
  // frozen `mate` array), then a COMMIT pass in a seeded shuffled order
  // that pairs vertices whose proposal still holds.
  // Later rounds re-propose vertices whose first choice was taken earlier in
  // the commit order.  Four rounds keep the per-level shrink near the 0.5
  // ideal even when many first choices collide (two leave ~25-40% of the
  // mass unmatched on dense levels, stalling the hierarchy before
  // `coarsest_target`).
  Rng rng(options.seed);
  std::vector<std::int32_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(std::span<std::int32_t>(order));

  std::vector<std::int32_t> mate(static_cast<std::size_t>(n), -1);
  std::vector<std::int32_t> pref(static_cast<std::size_t>(n), -1);
  constexpr std::int32_t kRounds = 4;
  for (std::int32_t round = 0; round < kRounds; ++round) {
    for (std::int32_t j = 0; j < n; ++j) {
      pref[static_cast<std::size_t>(j)] = -1;
      if (mate[static_cast<std::size_t>(j)] != -1) continue;
      const auto neighbors = adjacency.row_indices(j);
      const auto weights = adjacency.row_values(j);
      std::int32_t best = -1;
      std::int32_t best_weight = 0;
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const std::int32_t other = neighbors[k];
        if (mate[static_cast<std::size_t>(other)] != -1) continue;
        if (sizes[static_cast<std::size_t>(j)] +
                sizes[static_cast<std::size_t>(other)] >
            size_limit) {
          continue;
        }
        if (weights[k] > best_weight ||
            (weights[k] == best_weight && best >= 0 && other < best)) {
          best_weight = weights[k];
          best = other;
        }
      }
      pref[static_cast<std::size_t>(j)] = best;
    }
    bool matched_any = false;
    for (const std::int32_t j : order) {
      if (mate[static_cast<std::size_t>(j)] != -1) continue;
      const std::int32_t partner = pref[static_cast<std::size_t>(j)];
      if (partner < 0 || mate[static_cast<std::size_t>(partner)] != -1) continue;
      mate[static_cast<std::size_t>(j)] = partner;
      mate[static_cast<std::size_t>(partner)] = j;
      matched_any = true;
    }
    if (!matched_any) break;  // a further round would propose the same pairs
  }

  // Assign cluster ids: matched pairs share one, singletons get their own.
  CoarseProblem coarse;
  coarse.cluster_of.assign(static_cast<std::size_t>(n), -1);
  std::int32_t next_cluster = 0;
  for (std::int32_t j = 0; j < n; ++j) {
    if (coarse.cluster_of[static_cast<std::size_t>(j)] != -1) continue;
    coarse.cluster_of[static_cast<std::size_t>(j)] = next_cluster;
    const std::int32_t partner = mate[static_cast<std::size_t>(j)];
    if (partner >= 0) coarse.cluster_of[static_cast<std::size_t>(partner)] = next_cluster;
    ++next_cluster;
  }
  coarse.num_clusters = next_cluster;

  // Coarse netlist: sizes add, wires re-accumulate between clusters.
  Netlist coarse_netlist(problem.netlist().name() + ".coarse");
  {
    std::vector<double> cluster_size(static_cast<std::size_t>(next_cluster), 0.0);
    for (std::int32_t j = 0; j < n; ++j) {
      cluster_size[static_cast<std::size_t>(
          coarse.cluster_of[static_cast<std::size_t>(j)])] +=
          sizes[static_cast<std::size_t>(j)];
    }
    for (std::int32_t c = 0; c < next_cluster; ++c) {
      coarse_netlist.add_component("cl" + std::to_string(c),
                                   cluster_size[static_cast<std::size_t>(c)]);
    }
  }
  // The PartitionProblem constructor finalized the fine netlist, so the
  // bundle list is already merged and sorted.
  for (const WireBundle& bundle : problem.netlist().bundles()) {
    const std::int32_t ca = coarse.cluster_of[static_cast<std::size_t>(bundle.a)];
    const std::int32_t cb = coarse.cluster_of[static_cast<std::size_t>(bundle.b)];
    if (ca != cb) coarse_netlist.add_wires(ca, cb, bundle.multiplicity);
  }
  coarse_netlist.finalize();

  // Coarse timing: tightest bound across each cluster pair; intra-cluster
  // constraints vanish (co-location has zero delay).
  TimingConstraints coarse_timing(next_cluster);
  problem.timing().matrix().for_each(
      [&](std::int32_t j1, std::int32_t j2, double bound) {
        if (j1 >= j2) return;
        const std::int32_t c1 = coarse.cluster_of[static_cast<std::size_t>(j1)];
        const std::int32_t c2 = coarse.cluster_of[static_cast<std::size_t>(j2)];
        if (c1 != c2) coarse_timing.add(c1, c2, bound);
      });

  // Coarse linear term: the cost of a cluster at partition i is the sum of
  // its members' costs there.
  Matrix<double> coarse_p;
  const auto& p = problem.linear_cost_matrix();
  if (!p.empty()) {
    coarse_p = Matrix<double>(problem.num_partitions(), next_cluster, 0.0);
    for (PartitionId i = 0; i < problem.num_partitions(); ++i) {
      for (std::int32_t j = 0; j < n; ++j) {
        coarse_p(i, coarse.cluster_of[static_cast<std::size_t>(j)]) += p(i, j);
      }
    }
  }

  coarse.problem = PartitionProblem(std::move(coarse_netlist),
                                    problem.topology(), std::move(coarse_timing),
                                    std::move(coarse_p), problem.alpha(),
                                    problem.beta());
  return coarse;
}

Assignment uncoarsen(const CoarseProblem& coarse,
                     const Assignment& coarse_assignment) {
  QBP_CHECK_EQ(coarse_assignment.num_components(), coarse.num_clusters);
  Assignment fine(static_cast<std::int32_t>(coarse.cluster_of.size()),
                  coarse_assignment.num_partitions());
  for (std::size_t j = 0; j < coarse.cluster_of.size(); ++j) {
    fine.set(static_cast<std::int32_t>(j),
             coarse_assignment[coarse.cluster_of[j]]);
  }
  return fine;
}

namespace {

/// Refine level `level` in place: polish (bounded best-improvement descent
/// on the penalized objective, C1 invariant), then -- on the finest level
/// only, if C2 still breaks -- a min-conflicts timing repair, keeping
/// whichever feasible point has the better true objective.  `u` enters as
/// the projection and leaves as the refined assignment; the level's
/// violations, repair moves and times go into `result`.  Returns whether
/// the refined `u` is fully feasible.
bool refine_level(const PartitionProblem& problem, Assignment& u,
                  const MultilevelOptions& options, std::size_t level,
                  MultilevelResult& result) {
  const std::uint64_t level_seed =
      options.coarsen.seed * 0x9e3779b97f4a7c15ull + level;
  const Assignment projected = u;
  const bool projected_feasible = problem.is_feasible(projected);

  if (options.refine_passes > 0) {
    QBP_PROF_SCOPE("multilevel.refine.polish");
    const Timer polish_timer;
    DeltaEvaluator evaluator(problem, options.refine_solver.penalty);
    polish_iterate(problem, evaluator, u, options.refine_passes, level_seed);
    result.polish_seconds += polish_timer.seconds();
  }

  // is_feasible's C2 scan, kept as a count for the per-level record.
  const std::int64_t violations =
      problem.timing().violations(u, problem.topology());
  result.level_violations[level] = violations;
  const bool capacity_ok = problem.satisfies_capacity(u);
  bool feasible = violations == 0 && capacity_ok;
  // Only the finest level walks: its answer is the one returned.  Above it
  // the polish leaves far more violations than a capped walk clears, and a
  // walk that fails changes nothing.
  if (level == 0 && !feasible && capacity_ok) {
    QBP_PROF_SCOPE("multilevel.refine.repair");
    const Timer repair_timer;
    RepairOptions repair_options;
    repair_options.seed = level_seed ^ 0x7e7a11ull;
    // A converging repair needs on the order of the violation count in
    // moves; the default 200n budget exists for cold starts.  Refinement
    // starts near-feasible, so cap the walk -- when it fails to converge
    // the result is discarded (projection fallback) and a longer walk
    // would only have burned the level's time budget.
    repair_options.max_moves = 10 * static_cast<std::int64_t>(problem.num_components());
    const RepairResult repaired = repair_timing(problem, u, repair_options);
    result.level_repair_moves[level] = repaired.moves;
    if (repaired.feasible) {
      u = repaired.assignment;
      feasible = true;
    }
    result.repair_seconds += repair_timer.seconds();
  }
  // Project-then-refine never loses feasibility: if the projection was
  // feasible and the descent (plus repair) could not keep it, or kept it at
  // a worse true objective, fall back to the projection.
  if (projected_feasible) {
    if (!feasible || problem.objective(u) > problem.objective(projected)) {
      u = projected;
      feasible = true;
    }
  }
  return feasible;
}

/// Wrap a refined assignment as a BurkardResult, the shape the coarsest
/// solve hands upward, so every level projects from the same record.
BurkardResult wrap_refined(const PartitionProblem& problem, Assignment u,
                           bool feasible, double penalty) {
  BurkardResult result;
  result.best_penalized = QhatMatrix(problem, penalty).penalized_value(u);
  if (feasible) {
    result.found_feasible = true;
    result.best_feasible_objective = problem.objective(u);
    result.best_feasible = u;
  }
  result.best = std::move(u);
  return result;
}

}  // namespace

MultilevelResult solve_qbp_multilevel(const PartitionProblem& problem,
                                      const Assignment& initial,
                                      const MultilevelOptions& options) {
  const Timer timer;
  MultilevelResult result;

  // Build the coarsening hierarchy.  `levels` points into `coarse_levels`,
  // so the storage must never reallocate -- reserve the depth cap up front.
  const std::int32_t total_levels = std::clamp<std::int32_t>(
      options.max_levels, 1, MultilevelOptions::kMaxLevels);
  std::vector<const PartitionProblem*> levels{&problem};
  std::vector<CoarseProblem> coarse_levels;
  coarse_levels.reserve(static_cast<std::size_t>(total_levels));
  result.level_sizes.push_back(problem.num_components());
  {
    const Timer coarsen_timer;
    while (static_cast<std::int32_t>(levels.size()) < total_levels &&
           levels.back()->num_components() > options.coarsest_target) {
      CoarsenOptions coarsen_options = options.coarsen;
      coarsen_options.seed =
          options.coarsen.seed +
          static_cast<std::uint64_t>(coarse_levels.size());
      CoarseProblem next = coarsen(*levels.back(), coarsen_options);
      if (next.num_clusters >=
          static_cast<std::int32_t>(options.min_shrink *
                                    levels.back()->num_components())) {
        break;  // diminishing returns
      }
      coarse_levels.push_back(std::move(next));
      levels.push_back(&coarse_levels.back().problem);
      result.level_sizes.push_back(coarse_levels.back().num_clusters);
    }
    result.coarsen_seconds = coarsen_timer.seconds();
  }
  result.levels_used = static_cast<std::int32_t>(coarse_levels.size());

  // Project the seed assignment down to the coarsest level.  Cluster
  // members always share one projected partition (both mates inherit the
  // first member's choice), so warm starts survive the descent intact.
  Assignment seed = initial;
  for (const CoarseProblem& coarse : coarse_levels) {
    Assignment projected(coarse.num_clusters,
                         coarse.problem.num_partitions());
    for (std::size_t j = 0; j < coarse.cluster_of.size(); ++j) {
      // First member wins; members of a cluster usually agree after the
      // previous level's refinement anyway.
      const std::int32_t cluster = coarse.cluster_of[j];
      if (projected[cluster] == Assignment::kUnassigned) {
        projected.set(cluster, seed[static_cast<std::int32_t>(j)]);
      }
    }
    seed = std::move(projected);
  }

  // Solve the coarsest level, then uncoarsen-and-refine upward.  The
  // caller's stop hook rides along into the coarsest solve; once it fires,
  // the remaining levels project without refining so the result still
  // reaches the fine problem's dimensions.
  BurkardOptions coarse_options = options.coarse_solver;
  if (options.should_stop && !coarse_options.should_stop) {
    coarse_options.should_stop = options.should_stop;
  }
  BurkardResult run;
  {
    QBP_PROF_SCOPE("multilevel.coarse_solve");
    run = solve_qbp(*levels.back(), seed, coarse_options);
  }
  result.coarse_solve_seconds = run.seconds;
  const double penalty = options.refine_solver.penalty;
  result.level_violations.assign(coarse_levels.size(), 0);
  result.level_repair_moves.assign(coarse_levels.size(), 0);
  for (std::size_t level = coarse_levels.size(); level-- > 0;) {
    const PartitionProblem& fine = *levels[level];
    const Assignment& coarse_best =
        run.found_feasible ? run.best_feasible : run.best;
    Assignment u = uncoarsen(coarse_levels[level], coarse_best);
    const bool stopped = options.should_stop && options.should_stop();
    if (stopped) {
      const std::int64_t violations = fine.timing().violations(u, fine.topology());
      const bool projected_feasible =
          violations == 0 && fine.satisfies_capacity(u);
      result.level_violations[level] = violations;
      run = wrap_refined(fine, std::move(u), projected_feasible, penalty);
      continue;
    }
    const bool feasible = refine_level(fine, u, options, level, result);
    run = wrap_refined(fine, std::move(u), feasible, penalty);
  }

  result.finest = std::move(run);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace qbp
