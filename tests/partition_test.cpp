#include <gtest/gtest.h>

#include "core/delta_evaluator.hpp"
#include "netlist/generator.hpp"
#include "partition/assignment.hpp"
#include "partition/cost.hpp"
#include "partition/deviation.hpp"
#include "partition/topology.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

// ----------------------------------------------------------- topology ----

TEST(Topology, GridManhattanDistances) {
  const auto topo = PartitionTopology::grid(2, 2, CostKind::kManhattan);
  EXPECT_EQ(topo.num_partitions(), 4);
  // Row-major ids: 0 1 / 2 3.
  EXPECT_DOUBLE_EQ(topo.wire_cost(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(topo.wire_cost(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(topo.wire_cost(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(topo.wire_cost(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(topo.wire_cost(2, 2), 0.0);
  EXPECT_TRUE(topo.wire_cost().is_symmetric());
  EXPECT_EQ(topo.wire_cost(), topo.delay());
}

TEST(Topology, GridMatchesPaperFigure1) {
  // Section 3.3: B = D = [0 1 1 2; 1 0 2 1; 1 2 0 1; 2 1 1 0].
  const auto topo = PartitionTopology::grid(2, 2, CostKind::kManhattan);
  const auto expected = Matrix<double>::from_rows(
      {{0, 1, 1, 2}, {1, 0, 2, 1}, {1, 2, 0, 1}, {2, 1, 1, 0}});
  EXPECT_EQ(topo.wire_cost(), expected);
}

TEST(Topology, UnitCostCountsCrossings) {
  const auto topo = PartitionTopology::grid(2, 2, CostKind::kUnit);
  EXPECT_DOUBLE_EQ(topo.wire_cost(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(topo.wire_cost(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(topo.wire_cost(1, 1), 0.0);
  // Delay stays Manhattan even with unit wire costs.
  EXPECT_DOUBLE_EQ(topo.delay(0, 3), 2.0);
}

TEST(Topology, QuadraticCost) {
  const auto topo = PartitionTopology::grid(1, 4, CostKind::kQuadratic);
  EXPECT_DOUBLE_EQ(topo.wire_cost(0, 3), 9.0);
  EXPECT_DOUBLE_EQ(topo.delay(0, 3), 3.0);
}

TEST(Topology, GridCoordinates) {
  // Partition i sits in slot (i % cols, i / cols), and D is the Manhattan
  // distance between slots: the distance the deviation cost reads.
  const auto topo = PartitionTopology::grid(2, 3, CostKind::kManhattan);
  EXPECT_EQ(topo.grid_cols(), 3);
  EXPECT_DOUBLE_EQ(topo.delay(0, 5), 3.0);
  EXPECT_DOUBLE_EQ(topo.delay(4, 0), 2.0);
}

TEST(Topology, CapacitiesSettable) {
  auto topo = PartitionTopology::grid(1, 3, CostKind::kManhattan, 2.0);
  EXPECT_DOUBLE_EQ(topo.total_capacity(), 6.0);
  topo.set_capacity(1, 5.0);
  EXPECT_DOUBLE_EQ(topo.capacity(1), 5.0);
  topo.set_capacities({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(topo.total_capacity(), 3.0);
}

TEST(Topology, CustomTopology) {
  auto b = Matrix<double>::from_rows({{0, 2}, {3, 0}});
  auto d = Matrix<double>::from_rows({{0, 1}, {1, 0}});
  const auto topo = PartitionTopology::custom(b, d, {4.0, 5.0});
  EXPECT_EQ(topo.num_partitions(), 2);
  EXPECT_DOUBLE_EQ(topo.wire_cost(1, 0), 3.0);  // B need not be symmetric
  EXPECT_DOUBLE_EQ(topo.delay(0, 1), 1.0);
  EXPECT_TRUE(topo.validate().empty());
}

TEST(Topology, ValidateCatchesNonzeroDiagonal) {
  auto b = Matrix<double>::from_rows({{1.0}});
  auto d = Matrix<double>::from_rows({{0.0}});
  EXPECT_FALSE(PartitionTopology::custom(b, d, {1.0}).validate().empty());
}

TEST(Topology, ValidateCatchesNegativeCapacity) {
  auto topo = PartitionTopology::grid(1, 2, CostKind::kManhattan);
  topo.set_capacity(0, -1.0);
  EXPECT_FALSE(topo.validate().empty());
}

// --------------------------------------------------------- assignment ----

TEST(Assignment, CompletenessTracking) {
  Assignment assignment(3, 4);
  EXPECT_FALSE(assignment.is_complete());
  assignment.set(0, 1);
  assignment.set(1, 0);
  EXPECT_FALSE(assignment.is_complete());
  assignment.set(2, 3);
  EXPECT_TRUE(assignment.is_complete());
  EXPECT_EQ(assignment[2], 3);
}

TEST(CapacityLedger, TracksUsageIncrementally) {
  Assignment assignment(2, 2);
  assignment.set(0, 0);
  assignment.set(1, 1);
  const std::vector<double> sizes{2.0, 3.0};
  const std::vector<double> caps{4.0, 4.0};
  CapacityLedger ledger(assignment, sizes, caps);
  EXPECT_DOUBLE_EQ(ledger.usage(0), 2.0);
  EXPECT_DOUBLE_EQ(ledger.slack(1), 1.0);
  EXPECT_TRUE(ledger.fits(0, 2.0));
  EXPECT_FALSE(ledger.fits(0, 2.1));
  ledger.remove(0, 2.0);
  ledger.add(1, 2.0);
  EXPECT_DOUBLE_EQ(ledger.usage(1), 5.0);
  EXPECT_EQ(ledger.violations(), 1);
}

TEST(CapacityLedger, SatisfiesCapacityHelper) {
  Assignment assignment(2, 2);
  assignment.set(0, 0);
  assignment.set(1, 0);
  const std::vector<double> sizes{1.0, 1.0};
  EXPECT_TRUE(satisfies_capacity(assignment, sizes, std::vector<double>{2.0, 2.0}));
  EXPECT_FALSE(satisfies_capacity(assignment, sizes, std::vector<double>{1.5, 2.0}));
}

TEST(CapacityLedger, IncompleteAssignmentNeverSatisfies) {
  Assignment assignment(2, 2);
  assignment.set(0, 0);
  const std::vector<double> sizes{1.0, 1.0};
  EXPECT_FALSE(satisfies_capacity(assignment, sizes, std::vector<double>{9.0, 9.0}));
}

// --------------------------------------------------------------- cost ----

TEST(Cost, WirelengthCountsEachBundleOnce) {
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 1.0);
  netlist.add_wires(0, 1, 5);
  netlist.finalize();
  const auto topo = PartitionTopology::grid(2, 2, CostKind::kManhattan);
  Assignment assignment(2, 4);
  assignment.set(0, 0);
  assignment.set(1, 3);
  EXPECT_DOUBLE_EQ(wirelength(netlist, topo, assignment), 10.0);  // 5 * 2
  EXPECT_DOUBLE_EQ(quadratic_cost(netlist, topo, assignment), 20.0);
}

TEST(Cost, QuadraticIsTwiceWirelengthForSymmetricB) {
  const auto generated = [] {
    RandomNetlistSpec spec;
    spec.num_components = 40;
    spec.total_wires = 120;
    spec.num_slots = 4;
    spec.grid_width = 2;
    spec.seed = 3;
    return generate_netlist(spec);
  }();
  const auto topo = PartitionTopology::grid(2, 2, CostKind::kManhattan);
  Rng rng(5);
  const auto assignment = test::random_complete(40, 4, rng);
  EXPECT_NEAR(quadratic_cost(generated.netlist, topo, assignment),
              2.0 * wirelength(generated.netlist, topo, assignment), 1e-9);
}

TEST(Cost, SameParitionWiresAreFree) {
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 1.0);
  netlist.add_wires(0, 1, 9);
  netlist.finalize();
  const auto topo = PartitionTopology::grid(2, 2, CostKind::kManhattan);
  Assignment assignment(2, 4);
  assignment.set(0, 2);
  assignment.set(1, 2);
  EXPECT_DOUBLE_EQ(wirelength(netlist, topo, assignment), 0.0);
}

TEST(Cost, LinearCostSumsSelectedEntries) {
  const auto p = Matrix<double>::from_rows({{1, 2}, {3, 4}});
  Assignment assignment(2, 2);
  assignment.set(0, 1);
  assignment.set(1, 0);
  EXPECT_DOUBLE_EQ(linear_cost(p, assignment), 3.0 + 2.0);
  EXPECT_DOUBLE_EQ(linear_cost(Matrix<double>{}, assignment), 0.0);
}

TEST(Cost, ObjectiveCombinesTerms) {
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 1.0);
  netlist.add_wires(0, 1, 1);
  netlist.finalize();
  const auto topo = PartitionTopology::grid(1, 2, CostKind::kManhattan);
  const auto p = Matrix<double>::from_rows({{1, 0}, {0, 2}});
  Assignment assignment(2, 2);
  assignment.set(0, 0);
  assignment.set(1, 1);
  // linear = 1 + 2 = 3; quadratic = 2 (both directions).
  EXPECT_DOUBLE_EQ(objective(netlist, topo, p, 10.0, 100.0, assignment),
                   10.0 * 3.0 + 100.0 * 2.0);
}

class MoveDeltaSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MoveDeltaSweep, MoveDeltaMatchesRecomputation) {
  const auto problem = test::make_tiny_problem({.seed = GetParam()});
  Rng rng(GetParam() ^ 0xabc);
  Assignment assignment = test::random_complete(problem.num_components(),
                                                problem.num_partitions(), rng);
  const auto& p = problem.linear_cost_matrix();
  const DeltaEvaluator evaluator(problem);
  for (int trial = 0; trial < 30; ++trial) {
    const auto j = static_cast<std::int32_t>(
        rng.next_below(problem.num_components()));
    const auto target = static_cast<PartitionId>(
        rng.next_below(problem.num_partitions()));
    const double before = objective(problem.netlist(), problem.topology(), p,
                                    problem.alpha(), problem.beta(), assignment);
    const double delta = evaluator.move_delta(assignment, j, target);
    Assignment moved = assignment;
    moved.set(j, target);
    const double after = objective(problem.netlist(), problem.topology(), p,
                                   problem.alpha(), problem.beta(), moved);
    EXPECT_NEAR(delta, after - before, 1e-9);
    assignment = moved;  // walk through state space
  }
}

TEST_P(MoveDeltaSweep, SwapDeltaMatchesRecomputation) {
  const auto problem =
      test::make_tiny_problem({.with_linear_term = true, .seed = GetParam()});
  Rng rng(GetParam() ^ 0xdef);
  Assignment assignment = test::random_complete(problem.num_components(),
                                                problem.num_partitions(), rng);
  const auto& p = problem.linear_cost_matrix();
  const DeltaEvaluator evaluator(problem);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a = static_cast<std::int32_t>(
        rng.next_below(problem.num_components()));
    const auto b = static_cast<std::int32_t>(
        rng.next_below(problem.num_components()));
    if (a == b) continue;
    const double before = objective(problem.netlist(), problem.topology(), p,
                                    problem.alpha(), problem.beta(), assignment);
    const double delta = evaluator.swap_delta(assignment, a, b);
    Assignment swapped = assignment;
    swapped.set(a, assignment[b]);
    swapped.set(b, assignment[a]);
    const double after = objective(problem.netlist(), problem.topology(), p,
                                   problem.alpha(), problem.beta(), swapped);
    EXPECT_NEAR(delta, after - before, 1e-9);
    assignment = swapped;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoveDeltaSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 11u, 12u, 13u));

// ----------------------------------------------------------- deviation ----

TEST(Deviation, MatrixMatchesDefinition) {
  const auto topo = PartitionTopology::grid(2, 2, CostKind::kManhattan);
  const std::vector<double> sizes{2.0, 3.0};
  Assignment initial(2, 4);
  initial.set(0, 0);
  initial.set(1, 3);
  const auto p = deviation_cost_matrix(topo, sizes, initial);
  // p_ij = s_j * manhattan(i, initial(j)).
  EXPECT_DOUBLE_EQ(p(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(p(3, 0), 2.0 * 2.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 3.0 * 2.0);
  EXPECT_DOUBLE_EQ(p(3, 1), 0.0);
}

TEST(Deviation, TotalDeviationEqualsLinearCost) {
  const auto topo = PartitionTopology::grid(2, 2, CostKind::kManhattan);
  const std::vector<double> sizes{2.0, 3.0, 1.0};
  Assignment initial(3, 4);
  initial.set(0, 0);
  initial.set(1, 1);
  initial.set(2, 2);
  Assignment current(3, 4);
  current.set(0, 3);
  current.set(1, 1);
  current.set(2, 0);
  const auto p = deviation_cost_matrix(topo, sizes, initial);
  EXPECT_DOUBLE_EQ(total_deviation(topo, sizes, initial, current),
                   linear_cost(p, current));
  EXPECT_EQ(components_moved(initial, current), 2);
}

TEST(Deviation, ZeroWhenUnmoved) {
  const auto topo = PartitionTopology::grid(2, 2, CostKind::kManhattan);
  const std::vector<double> sizes{1.0};
  Assignment initial(1, 4);
  initial.set(0, 2);
  EXPECT_DOUBLE_EQ(total_deviation(topo, sizes, initial, initial), 0.0);
  EXPECT_EQ(components_moved(initial, initial), 0);
}

}  // namespace
}  // namespace qbp
