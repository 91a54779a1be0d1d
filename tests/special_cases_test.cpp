#include <gtest/gtest.h>

#include "assign/gap.hpp"
#include "core/brute_force.hpp"
#include "core/burkard.hpp"
#include "core/initial.hpp"
#include "engine/adapters.hpp"
#include "engine/portfolio.hpp"
#include "oracle/lap.hpp"
#include "oracle/special_cases.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

// ----------------------------------------------------------------- QAP ----

TEST(SpecialCases, QapAssignmentsArePermutations) {
  Matrix<std::int32_t> flow(4, 4, 0);
  flow(0, 1) = 3;
  flow(2, 3) = 2;
  Matrix<double> distance(4, 4, 0.0);
  for (std::int32_t a = 0; a < 4; ++a) {
    for (std::int32_t b = 0; b < 4; ++b) distance(a, b) = std::abs(a - b);
  }
  const auto problem = make_qap_problem(flow, distance);
  EXPECT_EQ(problem.num_partitions(), 4);
  EXPECT_EQ(problem.num_components(), 4);

  const auto exact = brute_force_constrained(problem);
  ASSERT_TRUE(exact.found);
  EXPECT_EQ(exact.feasible_count, 24);  // 4! permutations
  // Optimal: put 0,1 adjacent and 2,3 adjacent: cost 2*(3*1 + 2*1) = 10.
  EXPECT_DOUBLE_EQ(exact.value, 10.0);
}

class QapSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QapSweep, QbpSolvesSmallQapsToOptimum) {
  Rng rng(GetParam());
  const std::int32_t n = 5;
  Matrix<std::int32_t> flow(n, n, 0);
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = a + 1; b < n; ++b) {
      if (rng.next_bool(0.6)) {
        flow(a, b) = static_cast<std::int32_t>(rng.next_int(1, 8));
      }
    }
  }
  Matrix<double> distance(n, n, 0.0);
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = 0; b < n; ++b) distance(a, b) = std::abs(a - b);
  }
  const auto problem = make_qap_problem(flow, distance);
  const auto exact = brute_force_constrained(problem);
  ASSERT_TRUE(exact.found);

  BurkardOptions options;
  options.iterations = 120;
  options.gap_step6.swap_improvement = true;
  const auto initial =
      make_initial(problem, InitialStrategy::kGreedyBalanced, GetParam());
  const auto result = solve_qbp(problem, initial.assignment, options);
  ASSERT_TRUE(result.found_feasible);
  EXPECT_NEAR(result.best_feasible_objective, exact.value, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QapSweep, ::testing::Range<std::uint64_t>(1, 7));

// ----------------------------------------------------------------- LAP ----

class LapReductionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LapReductionSweep, MatchesDedicatedLapSolver) {
  Rng rng(GetParam());
  const std::int32_t n = 5;
  Matrix<double> cost(n, n, 0.0);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      cost(i, j) = static_cast<double>(rng.next_int(0, 20));
    }
  }
  const auto problem = make_lap_problem(cost);
  const auto exact = brute_force_constrained(problem);
  ASSERT_TRUE(exact.found);
  EXPECT_NEAR(exact.value, solve_lap(cost).cost, 1e-9);

  BurkardOptions options;
  options.iterations = 80;
  options.gap_step6.swap_improvement = true;
  const auto initial =
      make_initial(problem, InitialStrategy::kGreedyBalanced, GetParam());
  const auto result = solve_qbp(problem, initial.assignment, options);
  ASSERT_TRUE(result.found_feasible);
  EXPECT_NEAR(result.best_feasible_objective, exact.value, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LapReductionSweep,
                         ::testing::Range<std::uint64_t>(1, 7));

// ----------------------------------------------------------------- GAP ----

TEST(SpecialCases, GapReductionMatchesDedicatedSolverSemantics) {
  Rng rng(9);
  const std::int32_t m = 3;
  const std::int32_t n = 7;
  Matrix<double> cost(m, n, 0.0);
  std::vector<double> sizes(static_cast<std::size_t>(n));
  for (auto& s : sizes) s = rng.next_double(0.5, 2.0);
  double total = 0.0;
  for (const double s : sizes) total += s;
  const std::vector<double> capacities(static_cast<std::size_t>(m),
                                       total / m * 1.6);
  for (std::int32_t i = 0; i < m; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      cost(i, j) = static_cast<double>(rng.next_int(0, 25));
    }
  }
  const auto problem = make_gap_problem(cost, sizes, capacities);
  EXPECT_EQ(problem.num_partitions(), 3);
  EXPECT_DOUBLE_EQ(problem.beta(), 0.0);

  // Feasibility semantics match the dedicated GAP checker.
  const test::GapInstance instance{cost, sizes, capacities, {}};
  const GapProblem gap = instance.problem();
  Rng walk(11);
  for (int trial = 0; trial < 30; ++trial) {
    const auto assignment = test::random_complete(n, m, walk);
    std::vector<std::int32_t> agents(static_cast<std::size_t>(n));
    for (std::int32_t j = 0; j < n; ++j) agents[static_cast<std::size_t>(j)] = assignment[j];
    EXPECT_EQ(problem.satisfies_capacity(assignment),
              gap_feasible(gap, agents));
    EXPECT_NEAR(problem.objective(assignment), gap_cost(gap, agents), 1e-9);
  }
}

// ----------------------------------------------- multistart and budget ----

/// `starts` Burkard runs through the engine portfolio on one thread; the
/// winner's result.
engine::SolverResult multistart(const PartitionProblem& problem,
                                std::int32_t starts, std::uint64_t seed,
                                const BurkardOptions& options) {
  engine::PortfolioOptions portfolio;
  portfolio.seed = seed;
  portfolio.threads = 1;
  return engine::Portfolio(portfolio)
      .run(problem, engine::BurkardSolver(options), starts)
      .best;
}

TEST(Multistart, AtLeastAsGoodAsSingleRun) {
  const auto problem = test::make_tiny_problem({.seed = 8});
  ASSERT_TRUE(brute_force_constrained(problem).found) << "seed 8 is feasible";
  BurkardOptions options;
  options.iterations = 20;
  const auto single = multistart(problem, 1, 7, options);
  const auto multi = multistart(problem, 5, 7, options);
  ASSERT_TRUE(multi.found_feasible);
  if (single.found_feasible) {
    EXPECT_LE(multi.best_feasible_objective,
              single.best_feasible_objective + 1e-9);
  }
}

TEST(Multistart, DeterministicInSeed) {
  const auto problem = test::make_tiny_problem({.seed = 9});
  BurkardOptions options;
  options.iterations = 15;
  const auto a = multistart(problem, 3, 21, options);
  const auto b = multistart(problem, 3, 21, options);
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.best_penalized, b.best_penalized);
}

}  // namespace
}  // namespace qbp
