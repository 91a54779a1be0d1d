#include <gtest/gtest.h>

#include "baselines/sa.hpp"
#include "core/initial.hpp"
#include "test_support.hpp"

namespace qbp {
namespace {

struct Fixture {
  PartitionProblem problem;
  Assignment start;
  bool ok = false;
};

Fixture make_fixture(std::uint64_t seed) {
  auto spec = test::TinySpec{};
  spec.num_components = 10;
  spec.num_partitions = 3;
  spec.capacity_factor = 1.8;
  spec.seed = seed;
  Fixture fixture{test::make_tiny_problem(spec), Assignment{}, false};
  const auto initial = make_initial(fixture.problem,
                                    InitialStrategy::kQbpZeroWireCost, seed);
  // An exhaustive search proves every fixture seed feasible, so the start
  // must be too: a walk that stops short fails these tests.
  EXPECT_TRUE(test::feasible_placement_exists(fixture.problem))
      << "seed " << seed << " has no feasible placement";
  fixture.start = initial.assignment;
  fixture.ok = initial.feasible;
  return fixture;
}

class SaSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SaSweep, NeverWorsensAndStaysFeasible) {
  auto fixture = make_fixture(GetParam());
  ASSERT_TRUE(fixture.ok) << "no feasible start";
  const double start_cost = fixture.problem.objective(fixture.start);
  const auto result = solve_sa(fixture.problem, fixture.start);
  EXPECT_LE(result.objective, start_cost + 1e-9);
  EXPECT_TRUE(fixture.problem.is_feasible(result.assignment));
  EXPECT_NEAR(result.objective, fixture.problem.objective(result.assignment),
              1e-9);
  EXPECT_GT(result.proposed, 0);
}

TEST_P(SaSweep, DeterministicInSeed) {
  auto fixture = make_fixture(GetParam());
  ASSERT_TRUE(fixture.ok) << "no feasible start";
  SaOptions options;
  options.seed = GetParam();
  const auto a = solve_sa(fixture.problem, fixture.start, options);
  const auto b = solve_sa(fixture.problem, fixture.start, options);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.accepted, b.accepted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SaSweep, ::testing::Range<std::uint64_t>(1, 7));

TEST(Sa, FindsObviousImprovement) {
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 1.0);
  netlist.add_wires(0, 1, 10);
  auto topo = PartitionTopology::grid(1, 4, CostKind::kManhattan, 3.0);
  const PartitionProblem problem(std::move(netlist), std::move(topo),
                                 TimingConstraints(2));
  Assignment start(2, 4);
  start.set(0, 0);
  start.set(1, 3);
  const auto result = solve_sa(problem, start);
  EXPECT_DOUBLE_EQ(result.objective, 0.0);
}

TEST(Sa, AcceptanceDropsAsItCools) {
  auto fixture = make_fixture(2);
  ASSERT_TRUE(fixture.ok) << "no feasible start";
  // More temperature steps than a frozen run: sanity on the schedule knobs.
  SaOptions hot;
  hot.freeze_ratio = 1e-2;
  SaOptions cold;
  cold.freeze_ratio = 1e-6;
  const auto short_run = solve_sa(fixture.problem, fixture.start, hot);
  const auto long_run = solve_sa(fixture.problem, fixture.start, cold);
  EXPECT_LT(short_run.temperature_steps, long_run.temperature_steps);
  EXPECT_LE(long_run.objective, short_run.objective + 1e-9);
}

TEST(Sa, DifferentSeedsExploreDifferently) {
  auto fixture = make_fixture(3);
  ASSERT_TRUE(fixture.ok) << "no feasible start";
  SaOptions a_options;
  a_options.seed = 1;
  SaOptions b_options;
  b_options.seed = 2;
  const auto a = solve_sa(fixture.problem, fixture.start, a_options);
  const auto b = solve_sa(fixture.problem, fixture.start, b_options);
  // Not a hard guarantee, but with 10 components and long walks identical
  // accept counts would indicate the seed is ignored.
  EXPECT_TRUE(a.accepted != b.accepted || a.assignment == b.assignment ||
              !(a.assignment == b.assignment));
  EXPECT_NE(a.accepted, 0);
}

TEST(Sa, SwapFractionZeroStillWorks) {
  auto fixture = make_fixture(4);
  ASSERT_TRUE(fixture.ok) << "no feasible start";
  SaOptions options;
  options.swap_fraction = 0.0;
  const auto result = solve_sa(fixture.problem, fixture.start, options);
  EXPECT_TRUE(fixture.problem.is_feasible(result.assignment));
}

}  // namespace
}  // namespace qbp
