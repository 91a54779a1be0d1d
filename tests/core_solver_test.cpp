#include <gtest/gtest.h>

#include "core/brute_force.hpp"
#include "core/burkard.hpp"
#include "core/embedding.hpp"
#include "core/initial.hpp"
#include "core/qhat.hpp"
#include "core/repair.hpp"
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
  const QhatMatrix qhat(problem, options.penalty);
  EXPECT_NEAR(result.best_penalized, qhat.penalized_value(result.best), 1e-9);
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

  const auto result = repair_timing(problem, start);
  EXPECT_TRUE(problem.satisfies_capacity(result.assignment));
  if (result.feasible) {
    EXPECT_TRUE(problem.satisfies_timing(result.assignment));
  }
  EXPECT_LE(problem.timing().violations(result.assignment, problem.topology()),
            problem.timing().violations(start, problem.topology()));
}

TEST(Repair, NoOpOnAlreadyFeasibleAssignment) {
  const auto problem = test::make_paper_example(/*capacity=*/1.0);
  Assignment feasible(3, 4);
  feasible.set(0, 0);
  feasible.set(1, 1);
  feasible.set(2, 3);
  ASSERT_TRUE(problem.is_feasible(feasible));
  const auto result = repair_timing(problem, feasible);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.moves, 0);
  EXPECT_EQ(result.assignment, feasible);
}

TEST(Repair, RespectsMoveBudget) {
  const auto problem = test::make_tiny_problem({.seed = 17});
  Assignment start =
      test::round_robin(problem.num_components(), problem.num_partitions());
  ASSERT_TRUE(problem.satisfies_capacity(start)) << "start breaks C1";
  RepairOptions options;
  options.max_moves = 3;
  const auto result = repair_timing(problem, start, options);
  EXPECT_LE(result.moves, 3);
}

}  // namespace
}  // namespace qbp
