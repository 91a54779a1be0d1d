#include "core/initial.hpp"

#include <algorithm>
#include <numeric>

#include "core/burkard.hpp"
#include "core/repair.hpp"
#include "partition/assignment.hpp"
#include "util/prof.hpp"
#include "util/rng.hpp"

namespace qbp {

namespace {

Assignment random_assignment(const PartitionProblem& problem, Rng& rng) {
  Assignment assignment(problem.num_components(), problem.num_partitions());
  for (std::int32_t j = 0; j < problem.num_components(); ++j) {
    assignment.set(j, static_cast<PartitionId>(rng.next_below(
                          static_cast<std::uint64_t>(problem.num_partitions()))));
  }
  return assignment;
}

/// Place components one at a time (in `order`), choosing for each a
/// partition that keeps C1 and C2 satisfied against already-placed
/// components.  `pick` selects among the feasible candidates; falls back to
/// the max-slack partition when none is feasible.
template <typename Picker>
Assignment constructive(const PartitionProblem& problem,
                        std::span<const std::int32_t> order, Picker&& pick) {
  const std::int32_t m = problem.num_partitions();
  const auto& sizes = problem.netlist().sizes();
  Assignment assignment(problem.num_components(), m);
  CapacityLedger ledger(assignment, sizes, problem.topology().capacities());

  std::vector<PartitionId> candidates;
  for (const std::int32_t j : order) {
    candidates.clear();
    for (PartitionId i = 0; i < m; ++i) {
      if (!ledger.fits(i, sizes[static_cast<std::size_t>(j)])) continue;
      if (!problem.timing().component_feasible_at(assignment,
                                                  problem.topology(), j, i)) {
        continue;
      }
      candidates.push_back(i);
    }
    PartitionId chosen;
    if (!candidates.empty()) {
      chosen = pick(candidates, ledger);
    } else {
      // No fully feasible slot: take the emptiest one and let the caller
      // report infeasibility.
      chosen = 0;
      for (PartitionId i = 1; i < m; ++i) {
        if (ledger.slack(i) > ledger.slack(chosen)) chosen = i;
      }
    }
    assignment.set(j, chosen);
    ledger.add(chosen, sizes[static_cast<std::size_t>(j)]);
  }
  return assignment;
}

}  // namespace

InitialResult make_initial(const PartitionProblem& problem,
                           InitialStrategy strategy, std::uint64_t seed,
                           std::int32_t qbp_iterations) {
  Rng rng(seed);
  InitialResult result;

  switch (strategy) {
    case InitialStrategy::kRandom: {
      result.assignment = random_assignment(problem, rng);
      break;
    }
    case InitialStrategy::kRandomFeasible: {
      const auto order = random_permutation(problem.num_components(), rng);
      result.assignment = constructive(
          problem, order, [&](std::span<const PartitionId> candidates,
                              const CapacityLedger&) {
            return candidates[rng.pick_index(candidates)];
          });
      break;
    }
    case InitialStrategy::kGreedyBalanced: {
      std::vector<std::int32_t> order(
          static_cast<std::size_t>(problem.num_components()));
      std::iota(order.begin(), order.end(), 0);
      const auto& sizes = problem.netlist().sizes();
      std::stable_sort(order.begin(), order.end(),
                       [&](std::int32_t a, std::int32_t b) {
                         return sizes[static_cast<std::size_t>(a)] >
                                sizes[static_cast<std::size_t>(b)];
                       });
      result.assignment = constructive(
          problem, order, [&](std::span<const PartitionId> candidates,
                              const CapacityLedger& ledger) {
            PartitionId best = candidates.front();
            for (const PartitionId i : candidates) {
              if (ledger.slack(i) > ledger.slack(best)) best = i;
            }
            return best;
          });
      break;
    }
    case InitialStrategy::kQbpZeroWireCost: {
      const PartitionProblem relaxed = problem.with_zero_wire_cost();
      BurkardOptions options;
      options.iterations = qbp_iterations;
      options.record_history = false;
      // The paper's "few iterations" end infeasible on all seven Table I
      // circuits here; the min-conflicts walk from the QBP incumbent does
      // the legalizing (2,062-159,201 moves per circuit).
      for (int attempt = 0; attempt < 4; ++attempt) {
        const Assignment start = random_assignment(problem, rng);
        const BurkardResult qbp = [&] {
          QBP_PROF_SCOPE("initial.qbp_zero_wire");
          return solve_qbp(relaxed, start, options);
        }();
        result.assignment = qbp.found_feasible ? qbp.best_feasible : qbp.best;
        if (qbp.found_feasible) break;
        if (problem.satisfies_capacity(result.assignment)) {
          RepairOptions repair_options;
          repair_options.seed = seed + 0x9e37u * static_cast<unsigned>(attempt + 1);
          Placement placement(problem, result.assignment);
          if (repair_timing(placement, repair_options).feasible) break;
        }
      }
      break;
    }
  }

  result.feasible = problem.satisfies_capacity(result.assignment) &&
                    problem.satisfies_timing(result.assignment);
  return result;
}

}  // namespace qbp
