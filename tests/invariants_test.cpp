// Cross-method invariant grid: every solver, across a matrix of capacity
// tightness and constraint density, must (a) keep C1/C3 always, (b) keep C2
// when it claims feasibility, (c) never worsen a feasible start, and (d)
// report objectives that match independent re-evaluation.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/gfm.hpp"
#include "baselines/gkl.hpp"
#include "baselines/sa.hpp"
#include "core/burkard.hpp"
#include "core/initial.hpp"
#include "test_support.hpp"

namespace qbp {
namespace {

using GridParam = std::tuple<double /*capacity_factor*/,
                             double /*constraint_probability*/,
                             std::uint64_t /*seed*/>;

class SolverGrid : public ::testing::TestWithParam<GridParam> {
 protected:
  void SetUp() override {
    const auto [capacity, density, seed] = GetParam();
    auto spec = test::TinySpec{};
    spec.num_components = 12;
    spec.num_partitions = 4;
    spec.wire_probability = 0.3;
    spec.constraint_probability = density;
    spec.capacity_factor = capacity;
    spec.seed = seed;
    problem_ = test::make_tiny_problem(spec);
    const auto initial = make_initial(
        problem_, InitialStrategy::kQbpZeroWireCost, seed);
    start_ = initial.assignment;
    start_feasible_ = initial.feasible;
    instance_feasible_ = test::feasible_placement_exists(problem_);
  }

  /// make_initial's verdict must be the exhaustive search's: a feasible
  /// start exactly when a feasible placement exists.
  void expect_start_verdict() const {
    EXPECT_EQ(start_feasible_, instance_feasible_)
        << (instance_feasible_ ? "make_initial missed a feasible placement"
                               : "make_initial claims an impossible start");
  }

  PartitionProblem problem_;
  Assignment start_;
  bool start_feasible_ = false;
  bool instance_feasible_ = false;
};

TEST_P(SolverGrid, QbpInvariants) {
  BurkardOptions options;
  options.iterations = 30;
  const auto result = solve_qbp(problem_, start_, options);
  // C3: complete assignments always.
  EXPECT_TRUE(result.best.is_complete());
  // The penalized incumbent matches re-evaluation.
  EXPECT_NEAR(result.best_penalized, problem_.penalized_value(result.best, options.penalty), 1e-9);
  if (result.found_feasible) {
    EXPECT_TRUE(problem_.is_feasible(result.best_feasible));
    EXPECT_NEAR(result.best_feasible_objective,
                problem_.objective(result.best_feasible), 1e-9);
    if (start_feasible_) {
      EXPECT_LE(result.best_feasible_objective,
                problem_.objective(start_) + 1e-9);
    }
  }
}

TEST_P(SolverGrid, GfmInvariants) {
  expect_start_verdict();
  if (!start_feasible_) return;  // proven infeasible: nothing to improve
  const auto result = solve_gfm(problem_, start_);
  EXPECT_TRUE(problem_.is_feasible(result.assignment));
  EXPECT_NEAR(result.objective, problem_.objective(result.assignment), 1e-9);
  EXPECT_LE(result.objective, problem_.objective(start_) + 1e-9);
}

TEST_P(SolverGrid, GklInvariants) {
  expect_start_verdict();
  if (!start_feasible_) return;  // proven infeasible: nothing to improve
  const auto result = solve_gkl(problem_, start_);
  EXPECT_TRUE(problem_.is_feasible(result.assignment));
  EXPECT_NEAR(result.objective, problem_.objective(result.assignment), 1e-9);
  EXPECT_LE(result.objective, problem_.objective(start_) + 1e-9);
}

TEST_P(SolverGrid, SaInvariants) {
  expect_start_verdict();
  if (!start_feasible_) return;  // proven infeasible: nothing to improve
  SaOptions options;
  options.moves_per_component = 4;  // keep the grid fast
  const auto result = solve_sa(problem_, start_, options);
  EXPECT_TRUE(problem_.is_feasible(result.assignment));
  EXPECT_NEAR(result.objective, problem_.objective(result.assignment), 1e-9);
  EXPECT_LE(result.objective, problem_.objective(start_) + 1e-9);
}

std::string grid_name(const ::testing::TestParamInfo<GridParam>& info) {
  const double capacity = std::get<0>(info.param);
  const double density = std::get<1>(info.param);
  const std::uint64_t seed = std::get<2>(info.param);
  return "cap" + std::to_string(static_cast<int>(capacity * 10)) + "_den" +
         std::to_string(static_cast<int>(density * 100)) + "_s" +
         std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    TightnessGrid, SolverGrid,
    ::testing::Combine(::testing::Values(1.2, 1.6, 2.5),       // capacity
                       ::testing::Values(0.05, 0.2, 0.4),      // constraints
                       ::testing::Values(11u, 12u)),           // seeds
    grid_name);

}  // namespace
}  // namespace qbp
