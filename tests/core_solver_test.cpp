#include <gtest/gtest.h>

#include <vector>

#include "core/brute_force.hpp"
#include "core/burkard.hpp"
#include "core/initial.hpp"
#include "core/repair.hpp"
#include "oracle/embedding.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

// -------------------------------------------------------- brute force ----

TEST(BruteForce, EnumeratesAllAssignments) {
  std::int64_t count = 0;
  enumerate_assignments(4, 3, [&](const Assignment& assignment) {
    EXPECT_TRUE(assignment.is_complete());
    ++count;
  });
  EXPECT_EQ(count, 81);  // 3^4
}

TEST(BruteForce, ConstrainedOptimumOfPaperExample) {
  const auto problem = test::make_paper_example(/*capacity=*/1.0);
  const auto result = brute_force_constrained(problem);
  ASSERT_TRUE(result.found);
  // One component per partition, a-b adjacent, b-c adjacent:
  // cost = 2*(5*1 + 2*1) = 14.
  EXPECT_DOUBLE_EQ(result.value, 14.0);
  EXPECT_TRUE(problem.is_feasible(result.best));
}

TEST(BruteForce, UnconstrainedCapacityExampleIsZero) {
  // With capacity 3 everything can co-locate: zero wirelength is optimal
  // and timing-trivial.
  const auto problem = test::make_paper_example(/*capacity=*/3.0);
  const auto result = brute_force_constrained(problem);
  ASSERT_TRUE(result.found);
  EXPECT_DOUBLE_EQ(result.value, 0.0);
}

TEST(BruteForce, ReportsInfeasibleInstance) {
  // Two size-2 components, two size-1 partitions.
  Netlist netlist;
  netlist.add_component("a", 2.0);
  netlist.add_component("b", 2.0);
  auto topo = PartitionTopology::grid(1, 2, CostKind::kManhattan, 1.0);
  const PartitionProblem problem(std::move(netlist), std::move(topo),
                                 TimingConstraints(2));
  const auto result = brute_force_constrained(problem);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.feasible_count, 0);
}

// --------------------------------------- embedding theorems (exactness) ----

class EmbeddingTheoremSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EmbeddingTheoremSweep, Theorem1PenaltyGivesExactEquivalence) {
  // QBP(Q') with U above the Theorem 1 threshold has the same optimum value
  // as the constrained problem, and its minimizer is feasible.
  auto spec = test::TinySpec{};
  spec.num_components = 5;
  spec.num_partitions = 3;
  spec.seed = GetParam();
  const auto problem = test::make_tiny_problem(spec);
  const auto constrained = brute_force_constrained(problem);
  ASSERT_TRUE(constrained.found) << "instance infeasible";

  const double u = theorem1_penalty(problem);
  const auto penalized = brute_force_penalized(problem, u);
  ASSERT_TRUE(penalized.found);
  EXPECT_NEAR(penalized.value, constrained.value, 1e-6);
  EXPECT_TRUE(problem.satisfies_timing(penalized.best));
  EXPECT_NEAR(problem.objective(penalized.best), constrained.value, 1e-6);
}

TEST_P(EmbeddingTheoremSweep, Theorem2CertifiesFeasibleMinimizers) {
  // With the paper's small penalty (50), *if* the penalized minimizer is
  // timing-feasible then it is a minimizer of the constrained problem.
  auto spec = test::TinySpec{};
  spec.num_components = 5;
  spec.num_partitions = 3;
  spec.seed = GetParam();
  const auto problem = test::make_tiny_problem(spec);
  const auto constrained = brute_force_constrained(problem);
  ASSERT_TRUE(constrained.found) << "instance infeasible";

  const auto penalized = brute_force_penalized(problem, kPaperPenalty);
  ASSERT_TRUE(penalized.found);
  if (problem.satisfies_timing(penalized.best)) {
    EXPECT_NEAR(problem.objective(penalized.best), constrained.value, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmbeddingTheoremSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// ------------------------------------------------------------ Burkard ----

class BurkardTinySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BurkardTinySweep, ReachesOptimumOnTinyInstances) {
  auto spec = test::TinySpec{};
  spec.num_components = 6;
  spec.num_partitions = 3;
  spec.seed = GetParam();
  const auto problem = test::make_tiny_problem(spec);
  const auto exact = brute_force_constrained(problem);
  ASSERT_TRUE(exact.found) << "instance infeasible";

  const auto initial =
      test::round_robin(problem.num_components(), problem.num_partitions());
  BurkardOptions options;
  options.iterations = 60;
  const auto result = solve_qbp(problem, initial, options);
  ASSERT_TRUE(result.found_feasible);
  EXPECT_TRUE(problem.is_feasible(result.best_feasible));
  EXPECT_NEAR(result.best_feasible_objective,
              problem.objective(result.best_feasible), 1e-9);
  // The heuristic should find the optimum on these tiny instances.
  EXPECT_NEAR(result.best_feasible_objective, exact.value, 1e-6);
}

TEST_P(BurkardTinySweep, LiteralListingStaysSound) {
  // polish_sweeps = 0, restart_period = 0: the paper's literal STEP 1-8.
  // It must remain sound (feasible output when it reports one, incumbent
  // values consistent), though it may be further from the optimum.
  auto spec = test::TinySpec{};
  spec.seed = GetParam();
  const auto problem = test::make_tiny_problem(spec);
  const auto initial =
      test::round_robin(problem.num_components(), problem.num_partitions());
  BurkardOptions options;
  options.iterations = 40;
  options.polish_sweeps = 0;
  options.restart_period = 0;
  const auto result = solve_qbp(problem, initial, options);
  EXPECT_NEAR(result.best_penalized, problem.penalized_value(result.best, options.penalty), 1e-9);
  if (result.found_feasible) {
    EXPECT_TRUE(problem.is_feasible(result.best_feasible));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BurkardTinySweep,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(Burkard, IncumbentNeverWorsens) {
  const auto problem = test::make_tiny_problem({.seed = 3});
  const auto initial =
      test::round_robin(problem.num_components(), problem.num_partitions());
  BurkardOptions options;
  options.iterations = 30;
  const auto result = solve_qbp(problem, initial, options);
  ASSERT_FALSE(result.history.empty());
  for (std::size_t k = 1; k < result.history.size(); ++k) {
    EXPECT_LE(result.history[k], result.history[k - 1] + 1e-12);
  }
  EXPECT_EQ(result.iterations_run, 30);
  EXPECT_EQ(result.history.size(), 30u);
}

TEST(Burkard, DeterministicAcrossRuns) {
  const auto problem = test::make_tiny_problem({.seed = 4});
  const auto initial =
      test::round_robin(problem.num_components(), problem.num_partitions());
  BurkardOptions options;
  options.iterations = 25;
  const auto a = solve_qbp(problem, initial, options);
  const auto b = solve_qbp(problem, initial, options);
  EXPECT_EQ(a.best.raw().size(), b.best.raw().size());
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.best_penalized, b.best_penalized);
}

TEST(Burkard, SolvesPaperExampleToOptimum) {
  const auto problem = test::make_paper_example(/*capacity=*/1.0);
  Assignment start(3, 4);
  for (std::int32_t j = 0; j < 3; ++j) start.set(j, j);  // arbitrary
  BurkardOptions options;
  options.iterations = 30;
  const auto result = solve_qbp(problem, start, options);
  ASSERT_TRUE(result.found_feasible);
  EXPECT_DOUBLE_EQ(result.best_feasible_objective, 14.0);
}

TEST(Burkard, PureLinearTermSpecialCase) {
  // PP(1, 0): objective is the linear term only (the MCM deviation
  // problem); the solver must still do real work through the diagonal.
  auto spec = test::TinySpec{};
  spec.with_linear_term = true;
  spec.seed = 7;
  const auto base = test::make_tiny_problem(spec);
  const PartitionProblem problem(base.netlist(), base.topology(), base.timing(),
                                 base.linear_cost_matrix(), 1.0, 0.0);
  const auto exact = brute_force_constrained(problem);
  ASSERT_TRUE(exact.found) << "instance infeasible";
  const auto initial =
      test::round_robin(problem.num_components(), problem.num_partitions());
  BurkardOptions options;
  options.iterations = 60;
  const auto result = solve_qbp(problem, initial, options);
  ASSERT_TRUE(result.found_feasible);
  EXPECT_NEAR(result.best_feasible_objective, exact.value, 1e-6);
}

TEST(Burkard, RespectsIterationBudget) {
  const auto problem = test::make_tiny_problem({.seed = 5});
  const auto initial =
      test::round_robin(problem.num_components(), problem.num_partitions());
  BurkardOptions options;
  options.iterations = 7;
  const auto result = solve_qbp(problem, initial, options);
  EXPECT_EQ(result.iterations_run, 7);
}

// ------------------------------------------------------------- initial ----

class InitialSweep
    : public ::testing::TestWithParam<std::tuple<InitialStrategy, std::uint64_t>> {
};

TEST_P(InitialSweep, ProducesCompleteAssignments) {
  const auto [strategy, seed] = GetParam();
  const auto problem = test::make_tiny_problem({.seed = seed});
  const auto result = make_initial(problem, strategy, seed);
  EXPECT_TRUE(result.assignment.is_complete());
  EXPECT_EQ(result.feasible, problem.is_feasible(result.assignment));
}

TEST_P(InitialSweep, DeterministicInSeed) {
  const auto [strategy, seed] = GetParam();
  const auto problem = test::make_tiny_problem({.seed = seed});
  const auto a = make_initial(problem, strategy, seed);
  const auto b = make_initial(problem, strategy, seed);
  EXPECT_EQ(a.assignment, b.assignment);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSeeds, InitialSweep,
    ::testing::Combine(::testing::Values(InitialStrategy::kRandom,
                                         InitialStrategy::kRandomFeasible,
                                         InitialStrategy::kGreedyBalanced,
                                         InitialStrategy::kQbpZeroWireCost),
                       ::testing::Values(1u, 2u, 3u)));

TEST(Initial, QbpZeroWireCostFindsFeasibleStartOnGenerousInstance) {
  auto spec = test::TinySpec{};
  spec.capacity_factor = 2.0;
  spec.constraint_probability = 0.2;
  spec.seed = 11;
  const auto problem = test::make_tiny_problem(spec);
  ASSERT_TRUE(brute_force_constrained(problem).found) << "instance infeasible";
  const auto result =
      make_initial(problem, InitialStrategy::kQbpZeroWireCost, 11);
  EXPECT_TRUE(result.feasible);
}

// -------------------------------------------------------------- repair ----

TEST(Repair, FixesViolationsWhilePreservingCapacity) {
  auto spec = test::TinySpec{};
  spec.capacity_factor = 2.0;
  spec.seed = 13;
  const auto problem = test::make_tiny_problem(spec);
  ASSERT_TRUE(brute_force_constrained(problem).found) << "instance infeasible";

  // Start from a capacity-feasible but timing-unaware assignment.
  const auto start =
      make_initial(problem, InitialStrategy::kGreedyBalanced, 13).assignment;
  ASSERT_TRUE(problem.satisfies_capacity(start)) << "start breaks C1";

  Assignment walked = start;
  Placement placement(problem, walked);
  const auto result = repair_timing(placement);
  EXPECT_TRUE(problem.satisfies_capacity(walked));
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(problem.satisfies_timing(walked));
  EXPECT_LE(problem.timing().violations(walked, problem.topology()),
            problem.timing().violations(start, problem.topology()));
}

TEST(Repair, NoOpOnAlreadyFeasibleAssignment) {
  const auto problem = test::make_paper_example(/*capacity=*/1.0);
  Assignment feasible(3, 4);
  feasible.set(0, 0);
  feasible.set(1, 1);
  feasible.set(2, 3);
  ASSERT_TRUE(problem.is_feasible(feasible));
  Assignment walked = feasible;
  Placement placement(problem, walked);
  const auto result = repair_timing(placement);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.moves, 0);
  EXPECT_EQ(walked, feasible);
}

TEST(Repair, RespectsMoveBudget) {
  const auto problem = test::make_tiny_problem({.seed = 17});
  Assignment start =
      test::round_robin(problem.num_components(), problem.num_partitions());
  ASSERT_TRUE(problem.satisfies_capacity(start)) << "start breaks C1";
  RepairOptions options;
  options.max_moves = 3;
  Placement placement(problem, start);
  const auto result = repair_timing(placement, options);
  EXPECT_LE(result.moves, 3);
}

/// What the rescanning walk returns: its own copy of the walked assignment.
struct RescanResult {
  Assignment assignment;
  bool feasible = false;
  std::int64_t moves = 0;
};

// The min-conflicts walk without the conflict table: every step rescans all
// components for the conflicted set and recounts each candidate target from
// the partners' partitions, and its verdict is a full C1/C2 rescan.  Kept
// here only as the reference the table-driven walk must reproduce move for
// move.
RescanResult rescan_repair(const PartitionProblem& problem, const Assignment& start,
                           const RepairOptions& options) {
  constexpr double kNoise = 0.08;
  const auto& topology = problem.topology();
  const auto& timing = problem.timing();
  const auto& sizes = problem.netlist().sizes();
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();

  RescanResult result;
  result.assignment = start;
  Assignment& assignment = result.assignment;
  CapacityLedger ledger(assignment, sizes, topology.capacities());
  Rng rng(options.seed);
  const std::int64_t budget = options.max_moves >= 0
                                  ? options.max_moves
                                  : 200 * static_cast<std::int64_t>(n);

  const auto conflicts_at = [&](std::int32_t j, PartitionId target) {
    const auto partners = timing.partners(j);
    const auto bounds = timing.bounds(j);
    std::int32_t conflicts = 0;
    for (std::size_t k = 0; k < partners.size(); ++k) {
      const PartitionId other = assignment[partners[k]];
      if (topology.delay(target, other) > bounds[k] ||
          topology.delay(other, target) > bounds[k]) {
        ++conflicts;
      }
    }
    return conflicts;
  };

  std::vector<std::int32_t> conflicted;
  std::vector<PartitionId> best_targets;
  while (result.moves < budget) {
    conflicted.clear();
    for (std::int32_t j = 0; j < n; ++j) {
      if (conflicts_at(j, assignment[j]) > 0) conflicted.push_back(j);
    }
    if (conflicted.empty()) break;
    const std::int32_t j = conflicted[static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(conflicted.size())))];
    const double size = sizes[static_cast<std::size_t>(j)];

    best_targets.clear();
    if (rng.next_bool(kNoise)) {
      for (PartitionId i = 0; i < m; ++i) {
        if (i != assignment[j] && ledger.fits(i, size)) best_targets.push_back(i);
      }
    } else {
      std::int32_t best_conflicts = conflicts_at(j, assignment[j]);
      for (PartitionId i = 0; i < m; ++i) {
        if (i == assignment[j] || !ledger.fits(i, size)) continue;
        const std::int32_t conflicts = conflicts_at(j, i);
        if (conflicts < best_conflicts) {
          best_conflicts = conflicts;
          best_targets.assign(1, i);
        } else if (conflicts == best_conflicts) {
          best_targets.push_back(i);
        }
      }
    }
    ++result.moves;
    if (best_targets.empty()) continue;
    const PartitionId target = best_targets[rng.pick_index(best_targets)];
    ledger.remove(assignment[j], size);
    ledger.add(target, size);
    assignment.set(j, target);
  }
  result.feasible = problem.satisfies_capacity(assignment) &&
                    problem.satisfies_timing(assignment);
  return result;
}

/// `start` after about n/4 random moves and swaps that keep C1 (timing is
/// not kept).
Assignment capacity_keeping_kick(const PartitionProblem& problem,
                                 const Assignment& start, Rng& rng) {
  const std::int32_t n = problem.num_components();
  const auto m = static_cast<std::uint64_t>(problem.num_partitions());
  const auto& sizes = problem.netlist().sizes();
  Assignment kicked = start;
  CapacityLedger ledger(kicked, sizes, problem.topology().capacities());
  for (std::int32_t step = 0; step < n / 4 + 1; ++step) {
    const auto j =
        static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    const PartitionId from = kicked[j];
    const double size = sizes[static_cast<std::size_t>(j)];
    if (step % 2 == 0) {
      const auto to = static_cast<PartitionId>(rng.next_below(m));
      if (to == from || !ledger.fits(to, size)) continue;
      ledger.remove(from, size);
      ledger.add(to, size);
      kicked.set(j, to);
      continue;
    }
    const auto other =
        static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    const PartitionId to = kicked[other];
    const double other_size = sizes[static_cast<std::size_t>(other)];
    if (to == from) continue;
    ledger.remove(from, size);
    ledger.remove(to, other_size);
    if (ledger.fits(to, size) && ledger.fits(from, other_size)) {
      ledger.add(to, size);
      ledger.add(from, other_size);
      kicked.set(j, to);
      kicked.set(other, from);
    } else {
      ledger.add(from, size);
      ledger.add(to, other_size);
    }
  }
  return kicked;
}

TEST(RepairOracle, TableWalkMatchesRescanWalk) {
  std::int64_t moves = 0;
  std::int32_t walks = 0;
  std::int32_t wide = 0;
  std::int32_t partnerless = 0;
  std::int32_t out_of_budget = 0;
  std::int32_t repaired = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE(seed);
    const test::OracleInstance instance = test::make_oracle_instance(seed);
    const PartitionProblem& problem = instance.problem;
    Rng rng(seed ^ 0x5eed);

    // The B = 0 iterate make_initial hands the walk, and a kick of the
    // feasible start.
    BurkardOptions zero_wire;
    zero_wire.iterations = 12;
    zero_wire.record_history = false;
    const BurkardResult qbp =
        solve_qbp(problem.with_zero_wire_cost(),
                  test::random_complete(problem.num_components(),
                                        problem.num_partitions(), rng),
                  zero_wire);
    std::vector<Assignment> starts{
        capacity_keeping_kick(problem, instance.start, rng)};
    const Assignment& iterate = qbp.found_feasible ? qbp.best_feasible : qbp.best;
    if (problem.satisfies_capacity(iterate)) starts.push_back(iterate);

    for (const Assignment& start : starts) {
      ASSERT_TRUE(problem.satisfies_capacity(start));
      RepairOptions options;
      options.seed = seed * 0x9e37u + static_cast<std::uint64_t>(walks);
      // The default 200 n budget on every fourth seed, one too short for
      // most walks on another, 500 moves on the rest.
      if (seed % 4 != 1) {
        options.max_moves = seed % 4 == 0 ? 1 + static_cast<std::int64_t>(seed % 23)
                                          : 500;
      }
      const RescanResult expected = rescan_repair(problem, start, options);
      // The walk moves a placement in place; its verdict must be the
      // rescan's, and what it kept must be what a fresh build counts.
      Assignment walked = start;
      Placement placement(problem, walked);
      const RepairResult actual = repair_timing(placement, options);
      EXPECT_EQ(actual.moves, expected.moves);
      EXPECT_EQ(actual.feasible, expected.feasible);
      EXPECT_EQ(walked, expected.assignment);
      EXPECT_EQ(test::placement_drift(placement), "");
      ++walks;
      moves += expected.moves;
      if (!expected.feasible && expected.moves == options.max_moves) {
        ++out_of_budget;
      }
      if (expected.feasible && expected.moves > 0) ++repaired;
    }
    if (problem.num_partitions() > 64) ++wide;
    for (std::int32_t j = 0; j < problem.num_components(); ++j) {
      if (problem.timing().partners(j).empty()) {
        ++partnerless;
        break;
      }
    }
  }
  // The sweep is not vacuous: walks move and repair, budgets run out, some
  // instances are wider than 64 partitions and some components have no
  // timing partner.
  EXPECT_GE(walks, 240);
  EXPECT_GT(moves, 10000);
  EXPECT_GE(repaired, 40);
  EXPECT_GE(out_of_budget, 50);
  EXPECT_GE(wide, 1);
  EXPECT_GE(partnerless, 100);
}

}  // namespace
}  // namespace qbp
