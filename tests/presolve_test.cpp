// Presolve reduction engine: rule soundness against the brute-force oracle,
// lift correctness, identity behavior on the standard instances, and the
// special-cases cross-check (LAP / GAP agree with the reducer's fixings).
#include "core/presolve.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench_support/circuits.hpp"
#include "core/brute_force.hpp"
#include "core/burkard.hpp"
#include "core/initial.hpp"
#include "core/multilevel.hpp"
#include "core/validate.hpp"
#include "engine/adapters.hpp"
#include "engine/pipeline.hpp"
#include "engine/spec.hpp"
#include "oracle/lap.hpp"
#include "oracle/special_cases.hpp"
#include "test_support.hpp"

namespace qbp {
namespace {

// A 1 x 3 row topology with one oversized component that fits only the
// widened partition 0: R0 must fix it there.
PartitionProblem make_r0_problem() {
  Netlist netlist("r0");
  const auto big = netlist.add_component("big", 10.0);
  const auto a = netlist.add_component("a", 1.0);
  const auto b = netlist.add_component("b", 1.0);
  netlist.add_wires(big, a, 2);
  netlist.add_wires(a, b, 1);
  PartitionTopology topology =
      PartitionTopology::grid(1, 3, CostKind::kManhattan);
  topology.set_capacity(0, 12.0);
  topology.set_capacity(1, 3.0);
  topology.set_capacity(2, 3.0);
  return PartitionProblem(std::move(netlist), std::move(topology),
                          TimingConstraints(3));
}

// A pendant, timing-free, tiny component hanging off a core triangle: R1
// must eliminate it with a response table.
PartitionProblem make_r1_problem() {
  Netlist netlist("r1");
  const auto a = netlist.add_component("a", 2.0);
  const auto b = netlist.add_component("b", 2.0);
  const auto c = netlist.add_component("c", 2.0);
  const auto pendant = netlist.add_component("p", 0.1);
  netlist.add_wires(a, b, 3);
  netlist.add_wires(b, c, 2);
  netlist.add_wires(a, c, 1);
  netlist.add_wires(c, pendant, 4);
  // Enough slack that R1's everywhere-reservation (pendant size subtracted
  // from every capacity) cannot exclude the true optimum's packing.
  PartitionTopology topology =
      PartitionTopology::grid(1, 3, CostKind::kManhattan, 5.0);
  TimingConstraints timing(4);
  timing.add(a, b, 2.0);
  return PartitionProblem(std::move(netlist), std::move(topology),
                          std::move(timing));
}

// A co-location bound below the minimum separable delay (1 on a row
// topology): R2 must merge the pair.
PartitionProblem make_r2_problem() {
  Netlist netlist("r2");
  const auto a = netlist.add_component("a", 1.0);
  const auto b = netlist.add_component("b", 1.0);
  const auto c = netlist.add_component("c", 1.0);
  const auto d = netlist.add_component("d", 1.0);
  netlist.add_wires(a, b, 2);
  netlist.add_wires(b, c, 3);
  netlist.add_wires(c, d, 1);
  netlist.add_wires(a, d, 2);
  PartitionTopology topology =
      PartitionTopology::grid(1, 3, CostKind::kManhattan, 3.5);
  TimingConstraints timing(4);
  timing.add(a, b, 0.5);  // co-location: no distinct pair has delay <= 0.5
  timing.add(c, d, 2.0);
  return PartitionProblem(std::move(netlist), std::move(topology),
                          std::move(timing));
}

// Solve `problem` through presolve + brute force on the remainder and
// compare against brute force on the original: the lifted optimum must
// match the true constrained optimum exactly.
void expect_exact_via_presolve(const PartitionProblem& problem,
                               const PresolveOptions& options) {
  const ReducedProblem reduced = presolve(problem, options);
  const BruteForceResult oracle = brute_force_constrained(problem);
  ASSERT_TRUE(oracle.found);
  Assignment lifted;
  double objective = 0.0;
  if (reduced.rn_feasible) {
    lifted = reduced.lift.lift(reduced.rn_assignment);
    objective = reduced.rn_objective + reduced.lift.objective_offset;
  } else {
    const BruteForceResult remainder =
        brute_force_constrained(reduced.problem);
    ASSERT_TRUE(remainder.found);
    lifted = reduced.lift.lift(remainder.best);
    objective = remainder.value + reduced.lift.objective_offset;
  }
  EXPECT_TRUE(problem.is_feasible(lifted));
  EXPECT_NEAR(problem.objective(lifted), oracle.value, 1e-9);
  EXPECT_NEAR(objective, problem.objective(lifted), 1e-9);
}

TEST(PresolveRules, R0FixesForcedComponent) {
  const PartitionProblem problem = make_r0_problem();
  PresolveOptions options;
  options.rule_rn = false;
  const ReducedProblem reduced = presolve(problem, options);
  EXPECT_GE(reduced.stats.r0, 1);
  EXPECT_EQ(reduced.stats.components_removed,
            problem.num_components() - reduced.problem.num_components());
  // The fixed component must land on partition 0 after lifting.
  Assignment all_zero(reduced.problem.num_components(), 3);
  for (std::int32_t j = 0; j < reduced.problem.num_components(); ++j) {
    all_zero.set(j, 0);
  }
  EXPECT_EQ(reduced.lift.lift(all_zero)[0], 0);
  expect_exact_via_presolve(problem, options);
}

TEST(PresolveRules, R1EliminatesPendant) {
  const PartitionProblem problem = make_r1_problem();
  PresolveOptions options;
  options.rule_rn = false;
  // The pendant is 0.1 of a 4.0-capacity partition; loosen the size guard
  // so the rule may fire.
  options.r1_max_size_fraction = 0.2;
  const ReducedProblem reduced = presolve(problem, options);
  EXPECT_GE(reduced.stats.r1, 1);
  expect_exact_via_presolve(problem, options);
}

TEST(PresolveRules, R2MergesCoLocatedPair) {
  const PartitionProblem problem = make_r2_problem();
  PresolveOptions options;
  options.rule_rn = false;
  const ReducedProblem reduced = presolve(problem, options);
  EXPECT_GE(reduced.stats.r2, 1);
  // Any lifted solution keeps the pair co-located.
  Assignment reduced_solution(reduced.problem.num_components(), 3);
  for (std::int32_t j = 0; j < reduced.problem.num_components(); ++j) {
    reduced_solution.set(j, j % 3);
  }
  const Assignment lifted = reduced.lift.lift(reduced_solution);
  EXPECT_EQ(lifted[0], lifted[1]);
  expect_exact_via_presolve(problem, options);
}

TEST(PresolveRules, RnSolvesTinyRemainderExactly) {
  test::TinySpec spec;
  spec.num_components = 4;
  spec.num_partitions = 3;
  spec.seed = 11;
  const PartitionProblem problem = test::make_tiny_problem(spec);
  const BruteForceResult oracle = brute_force_constrained(problem);
  const ReducedProblem reduced = presolve(problem);
  ASSERT_TRUE(reduced.rn_solved);
  ASSERT_EQ(reduced.rn_feasible, oracle.found);
  if (oracle.found) {
    const Assignment lifted = reduced.lift.lift(reduced.rn_assignment);
    EXPECT_TRUE(problem.is_feasible(lifted));
    EXPECT_NEAR(reduced.rn_objective + reduced.lift.objective_offset,
                oracle.value, 1e-9);
  }
}

TEST(PresolveRules, ProvenInfeasibleWhenComponentFitsNowhere) {
  Netlist netlist("nofit");
  netlist.add_component("huge", 100.0);
  netlist.add_component("a", 1.0);
  netlist.add_wires(0, 1, 1);
  PartitionTopology topology =
      PartitionTopology::grid(1, 2, CostKind::kManhattan, 5.0);
  const PartitionProblem problem(std::move(netlist), std::move(topology),
                                 TimingConstraints(2));
  const ReducedProblem reduced = presolve(problem);
  EXPECT_TRUE(reduced.stats.proven_infeasible);
  // Identity reduction: the solver still runs and reports infeasibility.
  EXPECT_TRUE(reduced.identity());
}

TEST(PresolveRules, DisabledReturnsIdentity) {
  const PartitionProblem problem = make_r0_problem();
  PresolveOptions options;
  options.enabled = false;
  const ReducedProblem reduced = presolve(problem, options);
  EXPECT_TRUE(reduced.identity());
  EXPECT_EQ(reduced.stats.components_removed, 0);
  EXPECT_EQ(reduced.problem.num_components(), problem.num_components());
}

TEST(PresolveRules, FixedPointOnRandomTinyInstances) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    test::TinySpec spec;
    spec.num_components = 6;
    spec.num_partitions = 3;
    spec.seed = seed;
    const PartitionProblem problem = test::make_tiny_problem(spec);
    const BruteForceResult oracle = brute_force_constrained(problem);
    if (!oracle.found) continue;
    PresolveOptions options;
    options.rule_rn = false;  // exercise the reduce-then-solve path
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_exact_via_presolve(problem, options);
  }
}

TEST(PresolveLift, RestrictThenLiftRoundTrips) {
  const PartitionProblem problem = make_r2_problem();
  PresolveOptions options;
  options.rule_rn = false;
  const ReducedProblem reduced = presolve(problem, options);
  ASSERT_FALSE(reduced.identity());
  const BruteForceResult oracle = brute_force_constrained(problem);
  ASSERT_TRUE(oracle.found);
  const Assignment restricted = reduced.lift.restrict_to_reduced(oracle.best);
  EXPECT_EQ(restricted.num_components(), reduced.problem.num_components());
  const Assignment lifted = reduced.lift.lift(restricted);
  // Surviving representatives keep the oracle's partitions.
  for (std::size_t r = 0; r < reduced.lift.orig_of.size(); ++r) {
    EXPECT_EQ(lifted[reduced.lift.orig_of[r]],
              oracle.best[reduced.lift.orig_of[r]]);
  }
}

// The standard benchmark families have no reducible structure by design:
// presolve must detect that and leave the solve bit-identical.
TEST(PresolveIdentity, StandardCircuitsDoNotReduce) {
  const auto instance = make_circuit(*find_preset("cktb"));
  const ReducedProblem reduced = presolve(instance.problem);
  EXPECT_EQ(reduced.stats.components_removed, 0);
  EXPECT_TRUE(reduced.identity());
}

// The pipeline with presolve on (its default) must be bit-identical to a
// direct solve_qbp when no rule fires.
TEST(PresolveIdentity, SolveQbpBitIdenticalOnOffWhenNothingReduces) {
  const auto instance = make_circuit(*find_preset("cktb"));
  const auto initial = make_initial(instance.problem,
                                    InitialStrategy::kQbpZeroWireCost, 1993);
  BurkardOptions options;
  options.iterations = 12;
  const BurkardResult direct =
      solve_qbp(instance.problem, initial.assignment, options);
  const engine::SolvePipeline pipeline(instance.problem);
  ASSERT_FALSE(pipeline.reduced());
  const engine::SolverResult piped = pipeline.solve_one(
      engine::BurkardSolver(options), {initial.assignment, 0});
  EXPECT_EQ(direct.best_penalized, piped.best_penalized);
  EXPECT_EQ(direct.best, piped.best);
  EXPECT_EQ(direct.found_feasible, piped.found_feasible);
  if (direct.found_feasible) {
    EXPECT_EQ(direct.best_feasible_objective, piped.best_feasible_objective);
    EXPECT_EQ(direct.best_feasible, piped.best_feasible);
  }
  EXPECT_EQ(direct.history, piped.history);
}

// Reducible instances: presolve-on must still produce valid (shadow-checked)
// solutions, just faster.  Uses the bench family built for exactly this.
TEST(PresolveReducing, BenchFamilyReducesAndSolvesValidly) {
  const PartitionProblem problem = make_presolve_problem(200, 42);
  const ReducedProblem reduced = presolve(problem);
  EXPECT_GT(reduced.stats.r0, 0);
  EXPECT_GT(reduced.stats.r1, 0);
  EXPECT_GT(reduced.stats.r2, 0);
  EXPECT_EQ(reduced.stats.components_removed,
            reduced.stats.r0 + reduced.stats.r1 + reduced.stats.r2);
  EXPECT_EQ(reduced.problem.num_components(),
            problem.num_components() - reduced.stats.components_removed);

  const auto initial =
      make_initial(problem, InitialStrategy::kQbpZeroWireCost, 7);
  BurkardOptions options;
  options.iterations = 20;
  const bool was_validating = validation_enabled();
  set_validation_enabled(true);  // shadow-check the lift on the original
  const engine::SolvePipeline pipeline(problem);
  const engine::SolverResult result = pipeline.solve_one(
      engine::BurkardSolver(options), {initial.assignment, 0});
  set_validation_enabled(was_validating);
  ASSERT_TRUE(result.found_feasible);
  EXPECT_TRUE(problem.is_feasible(result.best_feasible));
  EXPECT_NEAR(problem.objective(result.best_feasible),
              result.best_feasible_objective, 1e-6);
}

TEST(PresolveReducing, MultilevelLiftsReducedSolve) {
  const PartitionProblem problem = make_presolve_problem(200, 42);
  const auto initial =
      make_initial(problem, InitialStrategy::kQbpZeroWireCost, 7);
  MultilevelOptions options;
  options.coarse_solver.iterations = 10;
  const engine::SolvePipeline pipeline(problem);
  ASSERT_TRUE(pipeline.reduced());
  const engine::SolverResult result = pipeline.solve_one(
      engine::MultilevelSolver(options), {initial.assignment, 0});
  ASSERT_TRUE(result.found_feasible);
  EXPECT_EQ(result.best_feasible.num_components(), problem.num_components());
  EXPECT_TRUE(problem.is_feasible(result.best_feasible));
}

// --- special-cases cross-check (satellite): the reducer must agree with the
// dedicated special-case solvers on the instances they already handle.

TEST(PresolveSpecialCases, LapOptimumMatchesRnReduction) {
  // 4 x 4 LAP: unit sizes/capacities, PP(1, 0).  RN covers the whole
  // instance, so presolve must reproduce the exact LAP optimum.
  Matrix<double> cost(4, 4, 0.0);
  const double values[4][4] = {{4, 2, 5, 7},
                               {8, 3, 10, 8},
                               {12, 5, 4, 5},
                               {6, 3, 7, 14}};
  for (std::int32_t i = 0; i < 4; ++i) {
    for (std::int32_t j = 0; j < 4; ++j) cost(i, j) = values[i][j];
  }
  const LapResult lap = solve_lap(cost);
  const PartitionProblem problem = make_lap_problem(cost).normalized();
  const ReducedProblem reduced = presolve(problem);
  ASSERT_TRUE(reduced.rn_solved);
  ASSERT_TRUE(reduced.rn_feasible);
  EXPECT_NEAR(reduced.rn_objective + reduced.lift.objective_offset, lap.cost,
              1e-9);
}

TEST(PresolveSpecialCases, GapForcedItemMatchesOracleFixing) {
  // Item 0 fits only agent 0 by size; R0 must fix it exactly where every
  // feasible GAP solution (hence the brute-force optimum) must place it.
  Matrix<double> cost(3, 3, 0.0);
  const double values[3][3] = {{9, 1, 2}, {2, 8, 3}, {3, 2, 7}};
  for (std::int32_t i = 0; i < 3; ++i) {
    for (std::int32_t j = 0; j < 3; ++j) cost(i, j) = values[i][j];
  }
  const std::vector<double> sizes = {5.0, 1.0, 1.0};
  const std::vector<double> capacities = {6.0, 1.5, 1.5};
  const PartitionProblem problem =
      make_gap_problem(cost, sizes, capacities).normalized();

  PresolveOptions options;
  options.rule_rn = false;
  const ReducedProblem reduced = presolve(problem, options);
  EXPECT_GE(reduced.stats.r0, 1);
  ASSERT_FALSE(reduced.identity());

  const BruteForceResult oracle = brute_force_constrained(problem);
  ASSERT_TRUE(oracle.found);
  EXPECT_EQ(oracle.best[0], 0);  // the forced fixing, per the oracle
  const BruteForceResult remainder = brute_force_constrained(reduced.problem);
  ASSERT_TRUE(remainder.found);
  const Assignment lifted = reduced.lift.lift(remainder.best);
  EXPECT_EQ(lifted[0], 0);  // ... and per the reducer
  EXPECT_NEAR(remainder.value + reduced.lift.objective_offset, oracle.value,
              1e-9);
}

// --- pipeline integration: normalize -> presolve -> solve -> lift ->
// validate, shared across portfolio starts.

TEST(PresolvePipeline, PortfolioRunLiftsAndValidates) {
  const PartitionProblem problem = make_presolve_problem(200, 42);
  engine::PipelineOptions options;
  options.portfolio.seed = 7;
  options.portfolio.threads = 2;
  options.portfolio.validate = true;
  const engine::SolvePipeline pipeline(problem, options);
  EXPECT_TRUE(pipeline.reduced());
  EXPECT_LT(pipeline.reduced_problem().num_components(),
            problem.num_components());
  BurkardOptions solver_options;
  solver_options.iterations = 15;
  const engine::BurkardSolver solver(solver_options);
  const engine::PipelineResult result = pipeline.run(solver, 3);
  ASSERT_GE(result.portfolio.best_start, 0);
  EXPECT_GT(result.presolve.components_removed, 0);
  const engine::SolverResult& best = result.portfolio.best;
  EXPECT_EQ(best.best.num_components(), problem.num_components());
  ASSERT_TRUE(best.found_feasible);
  EXPECT_TRUE(problem.is_feasible(best.best_feasible));
}

TEST(PresolvePipeline, InstanceThatPresolveFixesEntirelyStillSolves) {
  // Only partition 0 can hold a component, so R0 fixes all six and the
  // solver runs on no free component at all: its GAP steps see an empty
  // cost vector over two agents.
  Netlist netlist("forced");
  for (std::int32_t j = 0; j < 6; ++j) {
    netlist.add_component("c" + std::to_string(j), 1.0);
  }
  netlist.add_wires(0, 1, 2);
  PartitionTopology topology =
      PartitionTopology::grid(1, 2, CostKind::kManhattan, 6.0);
  topology.set_capacity(1, 0.5);
  const PartitionProblem problem(std::move(netlist), std::move(topology),
                                 TimingConstraints(6));
  const engine::SolvePipeline pipeline(problem);
  ASSERT_EQ(pipeline.reduced_problem().num_components(), 0);
  const engine::PipelineResult result =
      pipeline.run(engine::BurkardSolver(BurkardOptions{}), 1);
  const engine::SolverResult& best = result.portfolio.best;
  ASSERT_TRUE(best.found_feasible);
  EXPECT_EQ(best.best_feasible, Assignment(std::vector<PartitionId>(6, 0), 2));
  EXPECT_EQ(best.best_feasible_objective, 0.0);
}

// With validation on, every answer passes the pipeline's one post-solve
// stage and its audit: solve_one's too, for every method, on an instance
// presolve leaves as it is.
TEST(PresolvePipeline, SolveOneIsAuditedForEveryMethodWhenNothingReduces) {
  const PartitionProblem problem = test::make_tiny_problem(
      {.num_components = 16, .num_partitions = 4, .seed = 5});
  engine::PipelineOptions options;
  options.portfolio.validate = true;
  const engine::SolvePipeline pipeline(problem, options);
  ASSERT_FALSE(pipeline.reduced());
  Rng rng(3);
  const Assignment start = test::random_complete(
      problem.num_components(), problem.num_partitions(), rng);
  for (const char* method : {"qbp", "multilevel", "gfm", "gkl", "sa"}) {
    SCOPED_TRACE(method);
    engine::SolverSpec spec;
    spec.method = method;
    spec.iterations = 10;
    const auto solver = engine::make_solver(spec);
    ASSERT_NE(solver, nullptr);
    const engine::SolverResult result = pipeline.solve_one(*solver, {start, 1});
    EXPECT_TRUE(result.error.empty()) << result.error;
    EXPECT_TRUE(result.validated);
  }
}

TEST(PresolvePipeline, DeterministicAcrossThreadCounts) {
  const PartitionProblem problem = make_presolve_problem(200, 42);
  BurkardOptions solver_options;
  solver_options.iterations = 10;
  const engine::BurkardSolver solver(solver_options);
  std::vector<double> objectives;
  for (const std::int32_t threads : {1, 4}) {
    engine::PipelineOptions options;
    options.portfolio.seed = 3;
    options.portfolio.threads = threads;
    const engine::SolvePipeline pipeline(problem, options);
    const engine::PipelineResult result = pipeline.run(solver, 4);
    ASSERT_GE(result.portfolio.best_start, 0);
    objectives.push_back(result.portfolio.best.best_penalized);
  }
  EXPECT_EQ(objectives[0], objectives[1]);
}

TEST(PresolvePipeline, OffModeMatchesPlainPortfolio) {
  const auto instance = make_circuit(*find_preset("cktb"));
  BurkardOptions solver_options;
  solver_options.iterations = 8;
  const engine::BurkardSolver solver(solver_options);
  engine::PipelineOptions pipeline_options;
  pipeline_options.presolve.enabled = false;
  pipeline_options.portfolio.seed = 5;
  const engine::SolvePipeline pipeline(instance.problem, pipeline_options);
  const engine::PipelineResult piped = pipeline.run(solver, 2);

  engine::PortfolioOptions portfolio_options;
  portfolio_options.seed = 5;
  const engine::PortfolioResult plain =
      engine::Portfolio(portfolio_options).run(instance.problem, solver, 2);
  ASSERT_GE(piped.portfolio.best_start, 0);
  EXPECT_EQ(piped.portfolio.best_start, plain.best_start);
  EXPECT_EQ(piped.portfolio.best.best_penalized, plain.best.best_penalized);
}

}  // namespace
}  // namespace qbp
