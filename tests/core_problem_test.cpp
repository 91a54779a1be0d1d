#include <gtest/gtest.h>

#include "core/problem.hpp"
#include "oracle/qhat.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

// --------------------------------------------------------- flattening ----

TEST(Flattening, IndexBijection) {
  const auto problem = test::make_tiny_problem({.num_components = 5,
                                                .num_partitions = 4});
  for (PartitionId i = 0; i < 4; ++i) {
    for (std::int32_t j = 0; j < 5; ++j) {
      const auto r = problem.flat_index(i, j);
      EXPECT_GE(r, 0);
      EXPECT_LT(r, problem.flat_size());
      EXPECT_EQ(problem.partition_of(r), i);
      EXPECT_EQ(problem.component_of(r), j);
    }
  }
}

TEST(Flattening, MatchesPaperConvention) {
  // r = i + (j-1)*M in 1-based terms; 0-based r = i + j*M.  Column-major:
  // component j's block is contiguous.
  const auto problem = test::make_tiny_problem({.num_components = 3,
                                                .num_partitions = 4});
  EXPECT_EQ(problem.flat_index(0, 0), 0);
  EXPECT_EQ(problem.flat_index(3, 0), 3);
  EXPECT_EQ(problem.flat_index(0, 1), 4);
  EXPECT_EQ(problem.flat_index(2, 2), 10);
}

TEST(Flattening, ToYFromYRoundTrip) {
  const auto problem = test::make_tiny_problem({});
  Rng rng(3);
  const auto assignment = test::random_complete(problem.num_components(),
                                                problem.num_partitions(), rng);
  const auto y = to_y(problem, assignment);
  ASSERT_EQ(static_cast<std::int64_t>(y.size()), problem.flat_size());
  // Exactly one 1 per component column (C3).
  for (std::int32_t j = 0; j < problem.num_components(); ++j) {
    int ones = 0;
    for (PartitionId i = 0; i < problem.num_partitions(); ++i) {
      ones += y[static_cast<std::size_t>(problem.flat_index(i, j))];
    }
    EXPECT_EQ(ones, 1);
  }
  EXPECT_EQ(from_y(problem, y), assignment);
}

// ---------------------------------------------------------- accessors ----

TEST(Problem, BasicAccessors) {
  const auto problem = test::make_tiny_problem({.num_components = 6,
                                                .num_partitions = 3});
  EXPECT_EQ(problem.num_components(), 6);
  EXPECT_EQ(problem.num_partitions(), 3);
  EXPECT_EQ(problem.flat_size(), 18);
  EXPECT_DOUBLE_EQ(problem.alpha(), 1.0);
  EXPECT_DOUBLE_EQ(problem.beta(), 1.0);
}

TEST(Problem, LinearCostZeroWhenPEmpty) {
  const auto problem = test::make_tiny_problem({.with_linear_term = false});
  EXPECT_DOUBLE_EQ(problem.linear_cost(0, 0), 0.0);
}

TEST(Problem, FeasibilityChecks) {
  const auto problem = test::make_paper_example(/*capacity=*/1.0);
  Assignment good(3, 4);
  good.set(0, 3);  // a->4, b->2, c->1 in paper numbering
  good.set(1, 1);
  good.set(2, 0);
  EXPECT_TRUE(problem.satisfies_capacity(good));
  EXPECT_TRUE(problem.satisfies_timing(good));
  EXPECT_TRUE(problem.is_feasible(good));

  Assignment crowded(3, 4);
  for (std::int32_t j = 0; j < 3; ++j) crowded.set(j, 0);
  EXPECT_FALSE(problem.satisfies_capacity(crowded));  // capacity 1 each
  EXPECT_TRUE(problem.satisfies_timing(crowded));     // distance 0 everywhere

  Assignment late(3, 4);
  late.set(0, 0);
  late.set(1, 3);  // a-b distance 2 > 1
  late.set(2, 2);
  EXPECT_FALSE(problem.satisfies_timing(late));
  EXPECT_FALSE(problem.is_feasible(late));
}

TEST(Problem, ObjectiveAndWirelength) {
  const auto problem = test::make_paper_example();
  Assignment assignment(3, 4);
  assignment.set(0, 0);  // a -> 1
  assignment.set(1, 1);  // b -> 2
  assignment.set(2, 3);  // c -> 4
  // Wirelength: 5 * dist(1,2)=1 + 2 * dist(2,4)=1 -> 7; quadratic doubles it.
  EXPECT_DOUBLE_EQ(problem.wirelength(assignment), 7.0);
  EXPECT_DOUBLE_EQ(problem.objective(assignment), 14.0);
}

// ------------------------------------------------------------ scaling ----

class ScalingSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScalingSweep, NormalizedPreservesObjectiveExactly) {
  auto spec = test::TinySpec{};
  spec.with_linear_term = true;
  spec.seed = GetParam();
  const auto base = test::make_tiny_problem(spec);
  const PartitionProblem scaled(base.netlist(), base.topology(), base.timing(),
                                base.linear_cost_matrix(), /*alpha=*/2.5,
                                /*beta=*/0.75);
  const auto normalized = scaled.normalized();
  EXPECT_DOUBLE_EQ(normalized.alpha(), 1.0);
  EXPECT_DOUBLE_EQ(normalized.beta(), 1.0);

  Rng rng(GetParam() ^ 0x777);
  for (int trial = 0; trial < 20; ++trial) {
    const auto assignment = test::random_complete(
        base.num_components(), base.num_partitions(), rng);
    EXPECT_NEAR(scaled.objective(assignment), normalized.objective(assignment),
                1e-9);
    // Feasibility is untouched by scaling.
    EXPECT_EQ(scaled.is_feasible(assignment), normalized.is_feasible(assignment));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScalingSweep, ::testing::Values(1u, 2u, 3u, 4u));

TEST(Problem, WithZeroWireCostKillsQuadraticTerm) {
  const auto base = test::make_tiny_problem({.seed = 5});
  const auto relaxed = base.with_zero_wire_cost();
  Rng rng(9);
  const auto assignment = test::random_complete(base.num_components(),
                                                base.num_partitions(), rng);
  EXPECT_DOUBLE_EQ(relaxed.objective(assignment), 0.0);
  // Delays (and so timing feasibility) are preserved.
  EXPECT_EQ(relaxed.satisfies_timing(assignment),
            base.satisfies_timing(assignment));
  EXPECT_EQ(relaxed.satisfies_capacity(assignment),
            base.satisfies_capacity(assignment));
}

TEST(Problem, WithoutTimingDropsC2Only) {
  const auto base = test::make_tiny_problem({.seed = 6});
  const auto relaxed = base.without_timing();
  EXPECT_EQ(relaxed.timing().count(), 0);
  Rng rng(10);
  const auto assignment = test::random_complete(base.num_components(),
                                                base.num_partitions(), rng);
  EXPECT_TRUE(relaxed.satisfies_timing(assignment));
  EXPECT_DOUBLE_EQ(relaxed.objective(assignment), base.objective(assignment));
}

// ----------------------------------------------------------- validate ----

TEST(Problem, ValidateAcceptsTinyInstance) {
  EXPECT_EQ(test::make_tiny_problem({}).validate(), "");
}

TEST(Problem, ValidateRejectsOverfullInstance) {
  Netlist netlist;
  netlist.add_component("a", 10.0);
  auto topo = PartitionTopology::grid(1, 2, CostKind::kManhattan, 1.0);
  const PartitionProblem problem(std::move(netlist), std::move(topo),
                                 TimingConstraints(1));
  EXPECT_NE(problem.validate().find("capacity"), std::string::npos);
}

TEST(Problem, ValidateRejectsNegativeP) {
  Netlist netlist;
  netlist.add_component("a", 1.0);
  auto topo = PartitionTopology::grid(1, 2, CostKind::kManhattan, 5.0);
  Matrix<double> p(2, 1, 0.0);
  p(1, 0) = -1.0;
  const PartitionProblem problem(std::move(netlist), std::move(topo),
                                 TimingConstraints(1), std::move(p));
  EXPECT_FALSE(problem.validate().empty());
}

TEST(Problem, ValidateRejectsMismatchedTiming) {
  Netlist netlist;
  netlist.add_component("a", 1.0);
  auto topo = PartitionTopology::grid(1, 2, CostKind::kManhattan, 5.0);
  const PartitionProblem problem(std::move(netlist), std::move(topo),
                                 TimingConstraints(7));
  EXPECT_FALSE(problem.validate().empty());
}

/// penalized_value as it was while every violated pair looked up its wire
/// count: Dc's entries in for_each order, each wire count by
/// Csr::value_or.
double lookup_penalized_value(const PartitionProblem& problem,
                              const Assignment& assignment, double penalty) {
  double value = problem.objective(assignment);
  const auto& adjacency = problem.netlist().connection_matrix();
  problem.timing().matrix().for_each(
      [&](std::int32_t j1, std::int32_t j2, double bound) {
        const PartitionId p1 = assignment[j1];
        const PartitionId p2 = assignment[j2];
        if (p1 == Assignment::kUnassigned || p2 == Assignment::kUnassigned) {
          return;
        }
        if (problem.topology().delay(p1, p2) > bound) {
          const auto wires = adjacency.value_or(j1, j2, 0);
          value += penalty - problem.beta() * wires *
                                 problem.topology().wire_cost(p1, p2);
        }
      });
  return value;
}

TEST(Problem, PenalizedValueWalksRowsLikeTheLookup) {
  // penalized_value reads each violator's wire count off a cursor over
  // j1's adjacency row.  It must sum the same terms in the same order as
  // the lookup form, so the two agree bit for bit, on integer and
  // fractional instances, at random assignments that break many bounds.
  std::int64_t wired_violations = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE(seed);
    const test::OracleInstance instance = test::make_oracle_instance(seed);
    const PartitionProblem& problem = instance.problem;
    Rng rng(seed ^ 0x5eed);
    for (int trial = 0; trial < 5; ++trial) {
      const Assignment u =
          trial == 0 ? instance.start
                     : test::random_complete(problem.num_components(),
                                             problem.num_partitions(), rng);
      for (const double penalty : {0.5, 50.0}) {
        EXPECT_EQ(problem.penalized_value(u, penalty),
                  lookup_penalized_value(problem, u, penalty));
      }
      problem.timing().matrix().for_each(
          [&](std::int32_t j1, std::int32_t j2, double bound) {
            if (problem.topology().delay(u[j1], u[j2]) > bound &&
                problem.netlist().connection_matrix().value_or(j1, j2, 0) > 0) {
              ++wired_violations;
            }
          });
    }
  }
  // Not vacuous: violated pairs that also carry wires were summed.
  EXPECT_GT(wired_violations, 0);
}

}  // namespace
}  // namespace qbp
