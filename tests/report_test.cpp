#include <gtest/gtest.h>

#include "assign/gap.hpp"
#include "core/report.hpp"
#include "oracle/gap_bound.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

// -------------------------------------------------------------- report ----

TEST(Report, ObjectiveBreakdownConsistent) {
  auto spec = test::TinySpec{};
  spec.with_linear_term = true;
  spec.seed = 4;
  const auto problem = test::make_tiny_problem(spec);
  Rng rng(1);
  const auto assignment = test::random_complete(problem.num_components(),
                                                problem.num_partitions(), rng);
  const auto report = make_report(problem, assignment);
  EXPECT_NEAR(report.objective,
              problem.alpha() * report.linear_term +
                  problem.beta() * report.quadratic_term,
              1e-9);
  EXPECT_NEAR(report.objective, problem.objective(assignment), 1e-9);
  EXPECT_NEAR(report.quadratic_term, 2.0 * report.wirelength, 1e-9);
}

TEST(Report, PartitionUsageSumsToTotalSize) {
  const auto problem = test::make_tiny_problem({.seed = 5});
  Rng rng(2);
  const auto assignment = test::random_complete(problem.num_components(),
                                                problem.num_partitions(), rng);
  const auto report = make_report(problem, assignment);
  double usage_total = 0.0;
  std::int32_t component_total = 0;
  for (const auto& usage : report.partitions) {
    usage_total += usage.usage;
    component_total += usage.components;
  }
  EXPECT_NEAR(usage_total, problem.netlist().total_size(), 1e-9);
  EXPECT_EQ(component_total, problem.num_components());
}

TEST(Report, WireHistogramSumsToTotalWires) {
  const auto problem = test::make_tiny_problem({.seed = 6});
  Rng rng(3);
  const auto assignment = test::random_complete(problem.num_components(),
                                                problem.num_partitions(), rng);
  const auto report = make_report(problem, assignment);
  std::int64_t wires = 0;
  for (const auto count : report.wires_at_distance) wires += count;
  EXPECT_EQ(wires, problem.netlist().total_wires());
}

TEST(Report, TimingFieldsMatchCheckers) {
  const auto problem = test::make_tiny_problem({.seed = 7});
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const auto assignment = test::random_complete(problem.num_components(),
                                                  problem.num_partitions(), rng);
    const auto report = make_report(problem, assignment);
    EXPECT_EQ(report.timing_ok, problem.satisfies_timing(assignment));
    EXPECT_EQ(report.timing_violations,
              problem.timing().violations(assignment, problem.topology()));
    EXPECT_EQ(report.capacity_ok, problem.satisfies_capacity(assignment));
    if (report.timing_violations > 0) {
      EXPECT_LT(report.min_timing_slack, 0.0);
    } else {
      EXPECT_GE(report.min_timing_slack, 0.0);
    }
  }
}

TEST(Report, RenderMentionsKeyFields) {
  const auto problem = test::make_paper_example(/*capacity=*/1.0);
  Assignment good(3, 4);
  good.set(0, 0);
  good.set(1, 1);
  good.set(2, 3);
  const auto report = make_report(problem, good);
  const auto text = to_string(report);
  EXPECT_NE(text.find("objective"), std::string::npos);
  EXPECT_NE(text.find("partition utilization"), std::string::npos);
  EXPECT_NE(text.find("wires by routing distance"), std::string::npos);
  EXPECT_EQ(text.find("VIOLATED"), std::string::npos);
}

TEST(Report, RenderFlagsViolations) {
  const auto problem = test::make_paper_example(/*capacity=*/1.0);
  Assignment crowded(3, 4);
  for (std::int32_t j = 0; j < 3; ++j) crowded.set(j, 0);
  const auto text = to_string(make_report(problem, crowded));
  EXPECT_NE(text.find("VIOLATED"), std::string::npos);
}

// ----------------------------------------------------- gap lower bound ----

class GapBoundSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GapBoundSweep, LowerBoundsTheOptimum) {
  const std::int32_t m = 3;
  const std::int32_t n = 7;
  const test::GapInstance instance = test::random_gap(m, n, 1.5, GetParam());
  const GapProblem problem = instance.problem();
  bool feasible = false;
  const double optimum = test::brute_force_gap(problem, feasible);
  ASSERT_TRUE(feasible) << "every seed of this sweep is feasible";

  const double bound = gap_lower_bound(problem);
  EXPECT_LE(bound, optimum + 1e-6);
  // And it should not be vacuous: at least the capacity-free bound.
  double relax = 0.0;
  for (std::int32_t j = 0; j < n; ++j) {
    double best = std::numeric_limits<double>::infinity();
    for (std::int32_t i = 0; i < m; ++i) best = std::min(best, problem.cost_at(i, j));
    relax += best;
  }
  EXPECT_GE(bound, relax - 1e-6);
}

TEST_P(GapBoundSweep, HeuristicWithinReasonableGapOfBound) {
  const test::GapInstance instance =
      test::random_gap(4, 30, 1.6, GetParam() ^ 0xbeef, 1, 40);
  const GapProblem problem = instance.problem();

  GapOptions options;
  options.swap_improvement = true;
  const auto result = solve_gap(problem, options);
  ASSERT_TRUE(result.feasible);
  const double bound = gap_lower_bound(problem, 120);
  EXPECT_GE(result.cost, bound - 1e-6);
  // Loose sanity margin: MTHG on benign random instances sits well within
  // 2x of the Lagrangian bound.
  EXPECT_LE(result.cost, std::max(bound * 2.0, bound + 40.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GapBoundSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace qbp
