#include <gtest/gtest.h>

#include <limits>

#include "netlist/generator.hpp"
#include "partition/topology.hpp"
#include "test_support.hpp"
#include "timing/conflict_table.hpp"
#include "timing/constraints.hpp"
#include "timing/timing_graph.hpp"
#include "util/check.hpp"

namespace qbp {
namespace {

Netlist chain_netlist(std::int32_t n) {
  Netlist netlist("chain");
  for (std::int32_t j = 0; j < n; ++j) netlist.add_component("c", 1.0);
  for (std::int32_t j = 0; j + 1 < n; ++j) netlist.add_wires(j, j + 1, 1);
  netlist.finalize();
  return netlist;
}

// --------------------------------------------------------- TimingGraph ----

TEST(TimingGraph, ArcsFollowRankOrder) {
  const auto netlist = chain_netlist(6);
  const std::vector<double> delays(6, 1.0);
  const auto graph = TimingGraph::build(netlist, delays, 7);
  for (const auto& arc : graph.arcs()) {
    EXPECT_LT(graph.rank()[arc.from], graph.rank()[arc.to]);
  }
  EXPECT_EQ(graph.arcs().size(), 5u);
}

TEST(TimingGraph, UpDownConsistentWithCriticalPath) {
  const auto netlist = chain_netlist(8);
  const std::vector<double> delays(8, 2.0);
  const auto graph = TimingGraph::build(netlist, delays, 3);
  // up + down double counts the node itself.
  for (std::int32_t v = 0; v < 8; ++v) {
    EXPECT_LE(graph.up(v) + graph.down(v) - 2.0, graph.critical_path() + 1e-9);
    EXPECT_GE(graph.up(v), 2.0);
    EXPECT_GE(graph.down(v), 2.0);
  }
  EXPECT_GT(graph.critical_path(), 0.0);
}

TEST(TimingGraph, CriticalPathOfChainWhenRankMatchesOrder) {
  // Build with many seeds; for a chain the longest up() is at most the sum
  // of all delays and at least the max single delay.
  const auto netlist = chain_netlist(5);
  const std::vector<double> delays{1.0, 2.0, 3.0, 4.0, 5.0};
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto graph = TimingGraph::build(netlist, delays, seed);
    EXPECT_LE(graph.critical_path(), 15.0 + 1e-9);
    EXPECT_GE(graph.critical_path(), 5.0);
  }
}

TEST(TimingGraph, ArcPathDelayAndSlack) {
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 1.0);
  netlist.add_wires(0, 1, 1);
  netlist.finalize();
  const std::vector<double> delays{3.0, 4.0};
  const auto graph = TimingGraph::build(netlist, delays, 1);
  ASSERT_EQ(graph.arcs().size(), 1u);
  const auto& arc = graph.arcs().front();
  EXPECT_DOUBLE_EQ(graph.arc_path_delay(arc), 7.0);
}

TEST(TimingGraph, DeterministicInSeed) {
  const auto netlist = chain_netlist(10);
  const std::vector<double> delays(10, 1.0);
  const auto a = TimingGraph::build(netlist, delays, 42);
  const auto b = TimingGraph::build(netlist, delays, 42);
  EXPECT_EQ(a.rank(), b.rank());
  EXPECT_DOUBLE_EQ(a.critical_path(), b.critical_path());
}

TEST(TimingGraph, IsolatedComponentHasOwnDelayOnly) {
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 1.0);
  netlist.add_component("lone", 1.0);
  netlist.add_wires(0, 1, 1);
  netlist.finalize();
  const std::vector<double> delays{1.0, 1.0, 5.0};
  const auto graph = TimingGraph::build(netlist, delays, 1);
  EXPECT_DOUBLE_EQ(graph.up(2), 5.0);
  EXPECT_DOUBLE_EQ(graph.down(2), 5.0);
}

// --------------------------------------------------- TimingConstraints ----

TEST(Constraints, SymmetricStorageAndCount) {
  TimingConstraints constraints(4);
  constraints.add(0, 2, 1.5);
  constraints.add(3, 1, 2.0);
  constraints.finalize();
  EXPECT_EQ(constraints.count(), 2);
  EXPECT_DOUBLE_EQ(constraints.max_delay(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(constraints.max_delay(2, 0), 1.5);
  EXPECT_DOUBLE_EQ(constraints.max_delay(1, 3), 2.0);
  EXPECT_EQ(constraints.max_delay(0, 1), TimingConstraints::kUnconstrained);
}

TEST(Constraints, DuplicateAddsKeepTightest) {
  TimingConstraints constraints(3);
  constraints.add(0, 1, 3.0);
  constraints.add(1, 0, 1.0);
  constraints.add(0, 1, 2.0);
  constraints.finalize();
  EXPECT_EQ(constraints.count(), 1);
  EXPECT_DOUBLE_EQ(constraints.max_delay(0, 1), 1.0);
}

TEST(Constraints, ViolationsCountsUnorderedPairs) {
  const auto topo = PartitionTopology::grid(1, 4, CostKind::kManhattan);
  TimingConstraints constraints(3);
  constraints.add(0, 1, 1.0);
  constraints.add(1, 2, 1.0);
  constraints.finalize();
  Assignment assignment(3, 4);
  assignment.set(0, 0);
  assignment.set(1, 3);  // distance 3 > 1: violated
  assignment.set(2, 3);  // distance 0 <= 1: ok
  EXPECT_EQ(constraints.violations(assignment, topo), 1);
  EXPECT_FALSE(constraints.is_feasible(assignment, topo));
  assignment.set(1, 1);
  EXPECT_EQ(constraints.violations(assignment, topo), 1);  // now 1-2 violated
  assignment.set(2, 2);
  EXPECT_EQ(constraints.violations(assignment, topo), 0);
  EXPECT_TRUE(constraints.is_feasible(assignment, topo));
}

TEST(Constraints, UnassignedPartnersIgnored) {
  const auto topo = PartitionTopology::grid(1, 4, CostKind::kManhattan);
  TimingConstraints constraints(2);
  constraints.add(0, 1, 1.0);
  constraints.finalize();
  Assignment assignment(2, 4);
  assignment.set(0, 0);
  EXPECT_EQ(constraints.violations(assignment, topo), 0);
  EXPECT_TRUE(constraints.component_feasible_at(assignment, topo, 0, 3));
}

TEST(Constraints, ComponentFeasibleAt) {
  const auto topo = PartitionTopology::grid(1, 4, CostKind::kManhattan);
  TimingConstraints constraints(3);
  constraints.add(0, 1, 1.0);
  constraints.add(0, 2, 2.0);
  constraints.finalize();
  Assignment assignment(3, 4);
  assignment.set(0, 0);
  assignment.set(1, 1);
  assignment.set(2, 2);
  EXPECT_TRUE(constraints.component_feasible_at(assignment, topo, 0, 0));
  EXPECT_TRUE(constraints.component_feasible_at(assignment, topo, 0, 1));
  // At partition 3: distance to 1 is 2 > 1 -> infeasible.
  EXPECT_FALSE(constraints.component_feasible_at(assignment, topo, 0, 3));
}

TEST(Constraints, ComponentFeasibleAtWithOverride) {
  const auto topo = PartitionTopology::grid(1, 4, CostKind::kManhattan);
  TimingConstraints constraints(2);
  constraints.add(0, 1, 1.0);
  constraints.finalize();
  Assignment assignment(2, 4);
  assignment.set(0, 0);
  assignment.set(1, 3);
  // Swap evaluation: 0 -> 3 while 1 -> 0 keeps |3 - 0| = 3 violated.
  EXPECT_FALSE(constraints.component_feasible_at(assignment, topo, 0, 3, 1, 0));
  // 0 -> 2 while 1 -> 3 is distance 1: ok.
  EXPECT_TRUE(constraints.component_feasible_at(assignment, topo, 0, 2, 1, 3));
}

TEST(Constraints, EmptyConstraintsAlwaysFeasible) {
  const auto topo = PartitionTopology::grid(2, 2, CostKind::kManhattan);
  TimingConstraints constraints(5);
  constraints.finalize();
  EXPECT_TRUE(constraints.empty());
  Assignment assignment(5, 4);
  for (std::int32_t j = 0; j < 5; ++j) assignment.set(j, 0);
  EXPECT_TRUE(constraints.is_feasible(assignment, topo));
}

TEST(Constraints, ReadAfterAddFailsUntilFinalized) {
  const auto topo = PartitionTopology::grid(1, 4, CostKind::kManhattan);
  Assignment assignment(3, 4);
  for (std::int32_t j = 0; j < 3; ++j) assignment.set(j, j);
  TimingConstraints constraints(3);
  {
    const test::FailModeGuard guard(check::FailMode::kThrow);
    EXPECT_THROW((void)constraints.count(), ContractViolation);
    constraints.add(0, 2, 3.0);
    constraints.finalize();
    EXPECT_EQ(constraints.count(), 1);
    constraints.add(2, 1, 1.0);
    EXPECT_THROW((void)constraints.matrix(), ContractViolation);
    EXPECT_THROW((void)constraints.count(), ContractViolation);
    EXPECT_THROW((void)constraints.max_delay(0, 2), ContractViolation);
    EXPECT_THROW((void)constraints.partners(0), ContractViolation);
    EXPECT_THROW((void)constraints.bounds(0), ContractViolation);
    EXPECT_THROW((void)constraints.violations(assignment, topo),
                 ContractViolation);
    EXPECT_THROW(
        (void)constraints.component_feasible_at(assignment, topo, 0, 1),
        ContractViolation);
    constraints.add(0, 2, 2.0);
    constraints.finalize();
    constraints.finalize();  // idempotent
  }

  TimingConstraints fresh(3);
  fresh.add(1, 2, 1.0);
  fresh.add(0, 2, 2.0);
  fresh.finalize();
  EXPECT_TRUE(constraints.matrix() == fresh.matrix());
  EXPECT_EQ(constraints.count(), 2);
  EXPECT_EQ(constraints.max_delay(2, 0), 2.0);
}

// ------------------------------------------------------ ConflictTable ----

/// Every entry of `table` against TimingConstraints::breaks, from scratch.
void expect_counts_match(const ConflictTable& table,
                         const PartitionProblem& problem,
                         const Assignment& assignment) {
  const auto& timing = problem.timing();
  for (std::int32_t j = 0; j < problem.num_components(); ++j) {
    for (PartitionId i = 0; i < problem.num_partitions(); ++i) {
      std::int32_t expected = 0;
      for (std::size_t k = 0; k < timing.partners(j).size(); ++k) {
        expected += TimingConstraints::breaks(problem.topology(), i,
                                              assignment[timing.partners(j)[k]],
                                              timing.bounds(j)[k])
                        ? 1
                        : 0;
      }
      ASSERT_EQ(table(j, i), expected) << "component " << j << " partition " << i;
    }
  }
}

TEST(ConflictTable, PatchedCountsMatchARecountAfterEveryMove) {
  // Odd seeds have asymmetric D, where only one direction may break.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    const auto instance = test::make_oracle_instance(seed);
    const PartitionProblem& problem = instance.problem;
    Rng rng(seed);
    Assignment assignment = test::random_complete(problem.num_components(),
                                                  problem.num_partitions(), rng);
    ConflictTable table(problem.timing(), problem.topology(), assignment);
    expect_counts_match(table, problem, assignment);
    for (int step = 0; step < 40; ++step) {
      const auto c = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(problem.num_components())));
      const PartitionId from = assignment[c];
      const auto to = static_cast<PartitionId>(
          rng.next_below(static_cast<std::uint64_t>(problem.num_partitions())));
      assignment.set(c, to);
      table.move(c, from, to);
      EXPECT_TRUE(table.partner_rows_match(assignment, c));
    }
    expect_counts_match(table, problem, assignment);
  }
}

TEST(ConflictTable, NanDelayCountsAsBreaksDoes) {
  // A NaN delay compares false, so breaks() looks at the other direction
  // only; the table's one-sided reach must agree (the constructor does not
  // validate, so it may see one).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix<double> delay(3, 3, 0.0);
  delay(0, 1) = nan;
  delay(1, 0) = 5.0;
  delay(0, 2) = nan;
  delay(2, 0) = nan;
  delay(1, 2) = 1.0;
  delay(2, 1) = 2.0;
  const auto topo = PartitionTopology::custom(Matrix<double>(3, 3, 0.0),
                                              std::move(delay), {5.0, 5.0, 5.0});
  TimingConstraints constraints(2);
  constraints.add(0, 1, 1.5);
  constraints.finalize();
  Assignment assignment(2, 3);
  assignment.set(0, 0);
  assignment.set(1, 0);
  const ConflictTable table(constraints, topo, assignment);
  for (PartitionId i = 0; i < 3; ++i) {
    EXPECT_EQ(table(1, i), TimingConstraints::breaks(topo, i, 0, 1.5) ? 1 : 0) << i;
  }
  EXPECT_EQ(table(1, 1), 1);  // D(1, 0) = 5 breaks although D(0, 1) is NaN
  EXPECT_EQ(table(1, 2), 0);  // both directions NaN: never breaks
}

// ---------------------------------------------------------- generation ----

class ConstraintGenSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::int64_t>> {};

TEST_P(ConstraintGenSweep, HitsTargetCountExactly) {
  const auto [seed, target] = GetParam();
  RandomNetlistSpec spec;
  spec.num_components = 90;
  spec.total_wires = 300;
  spec.seed = seed;
  const auto generated = generate_netlist(spec);
  const auto topo = PartitionTopology::grid(4, 4, CostKind::kManhattan);
  TimingSpec timing_spec;
  timing_spec.target_count = target;
  timing_spec.seed = seed;
  const auto constraints = generate_timing_constraints(
      generated.netlist, generated.hidden_slot, topo, timing_spec);
  EXPECT_EQ(constraints.count(), target);
}

TEST_P(ConstraintGenSweep, ReferencePlacementIsFeasible) {
  const auto [seed, target] = GetParam();
  RandomNetlistSpec spec;
  spec.num_components = 90;
  spec.total_wires = 300;
  spec.seed = seed;
  const auto generated = generate_netlist(spec);
  const auto topo = PartitionTopology::grid(4, 4, CostKind::kManhattan);
  TimingSpec timing_spec;
  timing_spec.target_count = target;
  timing_spec.seed = seed;
  const auto constraints = generate_timing_constraints(
      generated.netlist, generated.hidden_slot, topo, timing_spec);
  const Assignment reference(
      std::vector<PartitionId>(generated.hidden_slot.begin(),
                               generated.hidden_slot.end()),
      16);
  EXPECT_TRUE(constraints.is_feasible(reference, topo));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndTargets, ConstraintGenSweep,
    ::testing::Combine(::testing::Values(1u, 5u, 9u),
                       ::testing::Values(std::int64_t{50}, std::int64_t{200},
                                         std::int64_t{500})));

TEST(ConstraintGen, BoundsAreAtLeastOne) {
  RandomNetlistSpec spec;
  spec.num_components = 60;
  spec.total_wires = 200;
  spec.seed = 2;
  const auto generated = generate_netlist(spec);
  const auto topo = PartitionTopology::grid(4, 4, CostKind::kManhattan);
  TimingSpec timing_spec;
  timing_spec.target_count = 150;
  timing_spec.seed = 2;
  const auto constraints = generate_timing_constraints(
      generated.netlist, generated.hidden_slot, topo, timing_spec);
  constraints.matrix().for_each([](std::int32_t, std::int32_t, double bound) {
    EXPECT_GE(bound, 1.0);
  });
}

TEST(ConstraintGen, TargetBeyondConnectedPairsUsesTwoHopPairs) {
  RandomNetlistSpec spec;
  spec.num_components = 30;
  spec.total_wires = 40;  // few connected pairs
  spec.seed = 4;
  const auto generated = generate_netlist(spec);
  const auto topo = PartitionTopology::grid(4, 4, CostKind::kManhattan);
  TimingSpec timing_spec;
  timing_spec.target_count = 100;  // > connected pairs
  timing_spec.seed = 4;
  const auto constraints = generate_timing_constraints(
      generated.netlist, generated.hidden_slot, topo, timing_spec);
  EXPECT_EQ(constraints.count(), 100);
}

TEST(ConstraintGen, DeterministicInSeed) {
  RandomNetlistSpec spec;
  spec.num_components = 50;
  spec.total_wires = 150;
  spec.seed = 8;
  const auto generated = generate_netlist(spec);
  const auto topo = PartitionTopology::grid(4, 4, CostKind::kManhattan);
  TimingSpec timing_spec;
  timing_spec.target_count = 80;
  timing_spec.seed = 8;
  const auto a = generate_timing_constraints(generated.netlist,
                                             generated.hidden_slot, topo,
                                             timing_spec);
  const auto b = generate_timing_constraints(generated.netlist,
                                             generated.hidden_slot, topo,
                                             timing_spec);
  EXPECT_EQ(a.matrix(), b.matrix());
}

}  // namespace
}  // namespace qbp
