#include <gtest/gtest.h>

#include "bench_support/circuits.hpp"
#include "core/delta_evaluator.hpp"
#include "core/initial.hpp"
#include "core/multilevel.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

PartitionProblem medium_problem(std::uint64_t seed) {
  auto spec = test::TinySpec{};
  spec.num_components = 40;
  spec.num_partitions = 4;
  spec.wire_probability = 0.15;
  spec.constraint_probability = 0.05;
  spec.capacity_factor = 1.6;
  spec.seed = seed;
  return test::make_tiny_problem(spec);
}

// ------------------------------------------------------------ coarsen ----

class CoarsenSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoarsenSweep, ClusterMapIsValidAndShrinks) {
  const auto problem = medium_problem(GetParam());
  const auto coarse = coarsen(problem);
  ASSERT_EQ(coarse.cluster_of.size(),
            static_cast<std::size_t>(problem.num_components()));
  for (const auto cluster : coarse.cluster_of) {
    EXPECT_GE(cluster, 0);
    EXPECT_LT(cluster, coarse.num_clusters);
  }
  EXPECT_LT(coarse.num_clusters, problem.num_components());
  // Matching merges at most pairs: at least ceil(N/2) clusters.
  EXPECT_GE(coarse.num_clusters, problem.num_components() / 2);
}

TEST_P(CoarsenSweep, PreservesTotalSize) {
  const auto problem = medium_problem(GetParam());
  const auto coarse = coarsen(problem);
  EXPECT_NEAR(coarse.problem.netlist().total_size(),
              problem.netlist().total_size(), 1e-9);
}

TEST_P(CoarsenSweep, PreservesCrossClusterWires) {
  const auto problem = medium_problem(GetParam());
  const auto coarse = coarsen(problem);
  // Every coarse wire count equals the sum of fine wires between the two
  // clusters; total coarse wires = fine wires minus intra-cluster wires.
  std::int64_t intra = 0;
  for (const WireBundle& bundle : problem.netlist().bundles()) {
    if (coarse.cluster_of[bundle.a] == coarse.cluster_of[bundle.b]) {
      intra += bundle.multiplicity;
    }
  }
  EXPECT_EQ(coarse.problem.netlist().total_wires(),
            problem.netlist().total_wires() - intra);
}

TEST_P(CoarsenSweep, ObjectiveMatchesOnClusterRespectingAssignments) {
  // For an assignment where every cluster is co-located, the coarse and
  // fine objectives agree exactly (intra-cluster wires cost zero).
  const auto problem = medium_problem(GetParam());
  const auto coarse = coarsen(problem);
  Rng rng(GetParam() ^ 0x11);
  const auto coarse_assignment = test::random_complete(
      coarse.num_clusters, problem.num_partitions(), rng);
  const auto fine_assignment = uncoarsen(coarse, coarse_assignment);
  EXPECT_NEAR(coarse.problem.objective(coarse_assignment),
              problem.objective(fine_assignment), 1e-9);
}

TEST_P(CoarsenSweep, FeasibilityProjectsDownward) {
  // Coarse-feasible => fine-feasible under uncoarsening (tightest-bound
  // constraint transfer + zero intra-cluster delay + additive sizes).
  const auto problem = medium_problem(GetParam());
  const auto coarse = coarsen(problem);
  Rng rng(GetParam() ^ 0x22);
  int checked = 0;
  for (int trial = 0; trial < 300 && checked < 5; ++trial) {
    const auto coarse_assignment = test::random_complete(
        coarse.num_clusters, problem.num_partitions(), rng);
    if (!coarse.problem.is_feasible(coarse_assignment)) continue;
    ++checked;
    EXPECT_TRUE(problem.is_feasible(uncoarsen(coarse, coarse_assignment)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoarsenSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Coarsen, RespectsSizeLimit) {
  const auto problem = medium_problem(3);
  CoarsenOptions options;
  options.max_cluster_capacity_fraction = 1e-9;  // nothing may merge
  const auto coarse = coarsen(problem, options);
  EXPECT_EQ(coarse.num_clusters, problem.num_components());
}

TEST(Coarsen, DeterministicInSeed) {
  const auto problem = medium_problem(4);
  const auto a = coarsen(problem);
  const auto b = coarsen(problem);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
}

// ---------------------------------------------------------- multilevel ----

class MultilevelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultilevelSweep, ProducesFeasibleSolutions) {
  const auto problem = medium_problem(GetParam());
  const auto initial =
      make_initial(problem, InitialStrategy::kGreedyBalanced, GetParam());
  MultilevelOptions options;
  options.coarse_solver.iterations = 40;
  // The 40-component instance sits below the default coarsest_target floor;
  // lower it so the sweep exercises a real V-cycle.
  options.coarsest_target = 10;
  const auto result = solve_qbp_multilevel(problem, initial.assignment, options);
  EXPECT_GE(result.levels_used, 1);
  EXPECT_EQ(result.level_sizes.front(), problem.num_components());
  ASSERT_TRUE(result.finest.found_feasible);
  EXPECT_TRUE(problem.is_feasible(result.finest.best_feasible));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultilevelSweep,
                         ::testing::Values(1u, 2u, 3u));

TEST(Multilevel, WorksOnPresetCircuit) {
  const auto instance = make_circuit(*find_preset("cktb"));
  const auto initial = make_initial(instance.problem,
                                    InitialStrategy::kQbpZeroWireCost, 1993);
  MultilevelOptions options;
  options.coarse_solver.iterations = 40;
  const auto result =
      solve_qbp_multilevel(instance.problem, initial.assignment, options);
  ASSERT_TRUE(result.finest.found_feasible);
  EXPECT_TRUE(instance.problem.is_feasible(result.finest.best_feasible));
  // Hierarchy really coarsened.
  ASSERT_GE(result.level_sizes.size(), 2u);
  EXPECT_LT(result.level_sizes[1], result.level_sizes[0]);
}

// ------------------------------------------------------- determinism ----

TEST(Multilevel, SameInputsTwiceAreBitIdentical) {
  // Run-to-run determinism: the V-cycle owns no clock, thread or global
  // state that could make a second run from the same inputs differ.
  const auto problem = make_scaling_problem(600, 7);
  const auto initial = make_initial(problem, InitialStrategy::kRandom, 7);
  const auto run = [&] {
    MultilevelOptions options;
    options.coarsest_target = 50;
    options.coarse_solver.iterations = 20;
    return solve_qbp_multilevel(problem, initial.assignment, options);
  };
  const auto reference = run();
  const auto result = run();
  EXPECT_EQ(result.levels_used, reference.levels_used);
  EXPECT_EQ(result.level_sizes, reference.level_sizes);
  EXPECT_EQ(result.level_violations, reference.level_violations);
  EXPECT_EQ(result.level_repair_moves, reference.level_repair_moves);
  EXPECT_EQ(result.finest.best_penalized, reference.finest.best_penalized);
  EXPECT_EQ(result.finest.best, reference.finest.best);
  ASSERT_EQ(result.finest.found_feasible, reference.finest.found_feasible);
  if (reference.finest.found_feasible) {
    EXPECT_EQ(result.finest.best_feasible, reference.finest.best_feasible);
    EXPECT_EQ(result.finest.best_feasible_objective,
              reference.finest.best_feasible_objective);
  }
}

// ------------------------------------------------- lift round-trip ----

TEST_P(CoarsenSweep, ProjectThenPolishKeepsCapacity) {
  // The refinement descent's C1 invariant, exercised exactly the way the
  // V-cycle uses it: project a feasible coarse assignment, polish, and the
  // capacity constraint must still hold (C2 may be traded against the
  // penalty mid-descent; solve_qbp_multilevel falls back to the projection
  // when that trade does not pay off).
  const auto problem = medium_problem(GetParam());
  const auto coarse = coarsen(problem);
  Rng rng(GetParam() ^ 0x33);
  for (int trial = 0; trial < 300; ++trial) {
    const auto coarse_assignment = test::random_complete(
        coarse.num_clusters, problem.num_partitions(), rng);
    if (!coarse.problem.is_feasible(coarse_assignment)) continue;
    Assignment u = uncoarsen(coarse, coarse_assignment);
    ASSERT_TRUE(problem.is_feasible(u));
    DeltaEvaluator evaluator(problem, kPaperPenalty);
    polish_iterate(problem, evaluator, u, 3, GetParam());
    EXPECT_TRUE(problem.satisfies_capacity(u));
    break;
  }
}

TEST(Multilevel, RefinementNeverLosesFeasibility) {
  // Project + polish on every level, one repair walk at the finest: every
  // seed ends feasible, and the claim verifies.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto problem = medium_problem(seed);
    const auto initial =
        make_initial(problem, InitialStrategy::kGreedyBalanced, seed);
    MultilevelOptions options;
    options.coarsest_target = 10;
    options.coarse_solver.iterations = 30;
    const auto result =
        solve_qbp_multilevel(problem, initial.assignment, options);
    ASSERT_TRUE(result.finest.found_feasible) << "seed " << seed;
    EXPECT_TRUE(problem.is_feasible(result.finest.best_feasible));
    EXPECT_EQ(problem.objective(result.finest.best_feasible),
              result.finest.best_feasible_objective);
  }
}

TEST(Multilevel, OnlyTheFinestLevelWalks) {
  // Intermediate levels (about 640 and 340 components) sit between the
  // finest and the coarsest: their polish leaves violations, yet no walk
  // runs there.  The finest walk converges inside its 10*N budget and its
  // answer is the result.
  const auto problem = make_scaling_problem(1200, 0xbeef);
  const auto initial = make_initial(problem, InitialStrategy::kRandom, 3);
  const auto result =
      solve_qbp_multilevel(problem, initial.assignment, MultilevelOptions{});
  ASSERT_GE(result.levels_used, 2);
  ASSERT_EQ(result.level_violations.size(),
            static_cast<std::size_t>(result.levels_used));
  ASSERT_EQ(result.level_repair_moves.size(),
            static_cast<std::size_t>(result.levels_used));
  for (std::int32_t level = 1; level < result.levels_used; ++level) {
    EXPECT_GT(result.level_violations[level], 0) << "level " << level;
    EXPECT_EQ(result.level_repair_moves[level], 0) << "level " << level;
  }
  EXPECT_GT(result.level_violations[0], 0);
  EXPECT_GT(result.level_repair_moves[0], 0);
  EXPECT_LT(result.level_repair_moves[0], 10 * problem.num_components());
  ASSERT_TRUE(result.finest.found_feasible);
  EXPECT_TRUE(problem.is_feasible(result.finest.best_feasible));
}

// ------------------------------------------------------- termination ----

TEST(Multilevel, ShrinkRatioFloorStopsHierarchy) {
  const auto problem = make_scaling_problem(1200, 0xbeef);
  const auto initial = make_initial(problem, InitialStrategy::kRandom, 3);
  MultilevelOptions options;
  options.max_levels = MultilevelOptions::kMaxLevels;
  options.coarsest_target = 1;  // only the shrink floor may stop it
  options.min_shrink = 0.75;
  options.coarse_solver.iterations = 5;
  const auto result = solve_qbp_multilevel(problem, initial.assignment, options);
  // Every committed level shrank by at least the floor, and the hierarchy
  // terminated well before the depth cap (matching merges at most pairs, so
  // unmatchable tails stall the shrink ratio).
  ASSERT_GE(result.level_sizes.size(), 2u);
  EXPECT_LT(result.levels_used, MultilevelOptions::kMaxLevels);
  for (std::size_t level = 0; level + 1 < result.level_sizes.size(); ++level) {
    EXPECT_LT(result.level_sizes[level + 1],
              static_cast<std::int32_t>(options.min_shrink *
                                        result.level_sizes[level]));
  }
}

TEST(Multilevel, CoarsestTargetStopsHierarchy) {
  const auto problem = make_scaling_problem(1200, 0xbeef);
  const auto initial = make_initial(problem, InitialStrategy::kRandom, 3);
  MultilevelOptions options;
  options.max_levels = MultilevelOptions::kMaxLevels;
  options.coarsest_target = 150;
  options.coarse_solver.iterations = 5;
  const auto result = solve_qbp_multilevel(problem, initial.assignment, options);
  // Only the coarsest level may sit at or below the target.
  for (std::size_t level = 0; level + 1 < result.level_sizes.size(); ++level) {
    EXPECT_GT(result.level_sizes[level], options.coarsest_target);
  }
}

// ------------------------------------------------------- equivalence ----

TEST(Multilevel, MaxLevelsOneMatchesFlatSolve) {
  // max_levels = 1 disables coarsening: the V-cycle must reproduce the flat
  // coarse_solver run bit for bit.
  const auto problem = medium_problem(2);
  const auto initial =
      make_initial(problem, InitialStrategy::kGreedyBalanced, 2);
  MultilevelOptions options;
  options.max_levels = 1;
  options.coarse_solver.iterations = 25;
  const auto multilevel =
      solve_qbp_multilevel(problem, initial.assignment, options);
  const auto flat = solve_qbp(problem, initial.assignment, options.coarse_solver);
  EXPECT_EQ(multilevel.levels_used, 0);
  ASSERT_EQ(multilevel.level_sizes,
            std::vector<std::int32_t>{problem.num_components()});
  EXPECT_EQ(multilevel.finest.best_penalized, flat.best_penalized);
  EXPECT_EQ(multilevel.finest.best, flat.best);
  ASSERT_EQ(multilevel.finest.found_feasible, flat.found_feasible);
  if (flat.found_feasible) {
    EXPECT_EQ(multilevel.finest.best_feasible, flat.best_feasible);
    EXPECT_EQ(multilevel.finest.best_feasible_objective,
              flat.best_feasible_objective);
  }
}

}  // namespace
}  // namespace qbp
