#include <gtest/gtest.h>

#include "core/brute_force.hpp"
#include "core/burkard.hpp"
#include "core/initial.hpp"
#include "oracle/exact.hpp"
#include "test_support.hpp"

namespace qbp {
namespace {

class ExactVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactVsBruteForce, SameOptimumOnTinyInstances) {
  auto spec = test::TinySpec{};
  spec.num_components = 7;
  spec.num_partitions = 3;
  spec.with_linear_term = true;
  spec.seed = GetParam();
  const auto problem = test::make_tiny_problem(spec);
  const auto oracle = brute_force_constrained(problem);
  const auto exact = solve_exact(problem);

  EXPECT_EQ(exact.found, oracle.found);
  EXPECT_TRUE(exact.proven_optimal);
  if (oracle.found) {
    EXPECT_NEAR(exact.objective, oracle.value, 1e-9);
    EXPECT_TRUE(problem.is_feasible(exact.best));
    EXPECT_NEAR(problem.objective(exact.best), exact.objective, 1e-9);
  }
}

TEST_P(ExactVsBruteForce, PrunesAgainstFullEnumeration) {
  auto spec = test::TinySpec{};
  spec.num_components = 8;
  spec.num_partitions = 3;
  spec.seed = GetParam();
  const auto problem = test::make_tiny_problem(spec);
  const auto exact = solve_exact(problem);
  ASSERT_TRUE(exact.found) << "every seed of this sweep is feasible";
  // 3^8 = 6561 leaves; the tree must be decisively smaller than the full
  // M^N * depth node count.
  EXPECT_LT(exact.nodes, 6561 * 8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactVsBruteForce,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(Exact, SolvesPaperExample) {
  const auto problem = test::make_paper_example(/*capacity=*/1.0);
  const auto exact = solve_exact(problem);
  ASSERT_TRUE(exact.found);
  EXPECT_TRUE(exact.proven_optimal);
  EXPECT_DOUBLE_EQ(exact.objective, 14.0);
}

TEST(Exact, DetectsInfeasibleInstance) {
  Netlist netlist;
  netlist.add_component("a", 2.0);
  netlist.add_component("b", 2.0);
  auto topo = PartitionTopology::grid(1, 2, CostKind::kManhattan, 3.0);
  TimingConstraints timing(2);
  // Feasible by capacity only when split, but a delay-0 bound would demand
  // co-location -- bounds are floored at >= 0; use a 0 bound directly.
  timing.add(0, 1, 0.0);
  const PartitionProblem problem(std::move(netlist), std::move(topo),
                                 std::move(timing));
  const auto exact = solve_exact(problem);
  EXPECT_FALSE(exact.found);
  EXPECT_TRUE(exact.proven_optimal);
}

TEST(Exact, WarmStartTightensSearch) {
  auto spec = test::TinySpec{};
  spec.num_components = 9;
  spec.num_partitions = 3;
  spec.seed = 4;
  const auto problem = test::make_tiny_problem(spec);
  const auto cold = solve_exact(problem);
  ASSERT_TRUE(cold.found) << "seed 4 is feasible";

  BurkardOptions heuristic_options;
  heuristic_options.iterations = 30;
  const auto initial =
      test::round_robin(problem.num_components(), problem.num_partitions());
  const auto heuristic = solve_qbp(problem, initial, heuristic_options);
  ASSERT_TRUE(heuristic.found_feasible);

  ExactOptions options;
  options.warm_start = &heuristic.best_feasible;
  const auto warm = solve_exact(problem, options);
  ASSERT_TRUE(warm.found);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_LE(warm.nodes, cold.nodes);
}

TEST(Exact, NodeBudgetReportedHonestly) {
  auto spec = test::TinySpec{};
  spec.num_components = 12;
  spec.num_partitions = 4;
  spec.seed = 5;
  const auto problem = test::make_tiny_problem(spec);
  ExactOptions options;
  options.max_nodes = 20;
  const auto result = solve_exact(problem, options);
  EXPECT_FALSE(result.proven_optimal);
}

TEST(Exact, MediumInstanceBeyondBruteForce) {
  // 18 components x 4 partitions = 4^18 ~ 7e10 raw assignments: far beyond
  // enumeration, fine for branch and bound.
  auto spec = test::TinySpec{};
  spec.num_components = 18;
  spec.num_partitions = 4;
  spec.wire_probability = 0.25;
  spec.constraint_probability = 0.15;
  spec.seed = 6;
  const auto problem = test::make_tiny_problem(spec);

  BurkardOptions heuristic_options;
  heuristic_options.iterations = 40;
  const auto initial =
      test::round_robin(problem.num_components(), problem.num_partitions());
  const auto heuristic = solve_qbp(problem, initial, heuristic_options);

  ExactOptions options;
  if (heuristic.found_feasible) options.warm_start = &heuristic.best_feasible;
  const auto exact = solve_exact(problem, options);
  ASSERT_TRUE(exact.proven_optimal);
  if (exact.found && heuristic.found_feasible) {
    // The heuristic can match but never beat the proven optimum.
    EXPECT_GE(heuristic.best_feasible_objective, exact.objective - 1e-9);
  }
}

}  // namespace
}  // namespace qbp
