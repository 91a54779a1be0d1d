#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/gfm.hpp"
#include "baselines/gkl.hpp"
#include "bench_support/circuits.hpp"
#include "bench_support/experiment.hpp"
#include "core/brute_force.hpp"
#include "core/delta_evaluator.hpp"
#include "core/initial.hpp"
#include "core/placement.hpp"
#include "test_support.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

/// A tiny instance together with its QBP(B=0) start; `ok` says whether the
/// start is feasible, which every sweep below asserts.
struct Fixture {
  PartitionProblem problem;
  Assignment start;
  bool ok = false;
};

Fixture make_fixture(std::uint64_t seed, double capacity_factor = 1.8) {
  auto spec = test::TinySpec{};
  spec.num_components = 8;
  spec.num_partitions = 3;
  spec.capacity_factor = capacity_factor;
  spec.seed = seed;
  Fixture fixture{test::make_tiny_problem(spec), Assignment{}, false};
  const auto initial = make_initial(fixture.problem,
                                    InitialStrategy::kQbpZeroWireCost, seed);
  fixture.start = initial.assignment;
  fixture.ok = initial.feasible;
  return fixture;
}

// ----------------------------------------------------------------- GFM ----

class GfmSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GfmSweep, NeverWorsensAndStaysFeasible) {
  auto fixture = make_fixture(GetParam());
  ASSERT_TRUE(fixture.ok) << "no feasible start";
  const double start_cost = fixture.problem.objective(fixture.start);
  const auto result = solve_gfm(fixture.problem, fixture.start);
  EXPECT_LE(result.objective, start_cost + 1e-9);
  EXPECT_TRUE(fixture.problem.is_feasible(result.assignment));
  EXPECT_NEAR(result.objective, fixture.problem.objective(result.assignment),
              1e-9);
  EXPECT_GE(result.passes, 1);
}

TEST_P(GfmSweep, DeterministicAcrossRuns) {
  auto fixture = make_fixture(GetParam());
  ASSERT_TRUE(fixture.ok);
  const auto a = solve_gfm(fixture.problem, fixture.start);
  const auto b = solve_gfm(fixture.problem, fixture.start);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GfmSweep, ::testing::Range<std::uint64_t>(1, 9));

TEST(Gfm, FindsObviousImprovement) {
  // Two heavily-connected components far apart, everything else empty.
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
  const auto result = solve_gfm(problem, start);
  EXPECT_DOUBLE_EQ(result.objective, 0.0);  // co-located
}

TEST(Gfm, RespectsCapacityDuringMoves) {
  // Co-locating would be ideal but capacity forbids it.
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 1.0);
  netlist.add_wires(0, 1, 10);
  auto topo = PartitionTopology::grid(1, 4, CostKind::kManhattan, 1.0);
  const PartitionProblem problem(std::move(netlist), std::move(topo),
                                 TimingConstraints(2));
  Assignment start(2, 4);
  start.set(0, 0);
  start.set(1, 3);
  const auto result = solve_gfm(problem, start);
  EXPECT_TRUE(problem.satisfies_capacity(result.assignment));
  // Best legal: adjacent partitions, cost 2 * 10 * 1.
  EXPECT_DOUBLE_EQ(result.objective, 20.0);
}

TEST(Gfm, RespectsTimingDuringMoves) {
  // Moving a next to b would help wirelength but violates a constraint to c.
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 1.0);
  netlist.add_component("c", 1.0);
  netlist.add_wires(0, 1, 10);
  auto topo = PartitionTopology::grid(1, 4, CostKind::kManhattan, 3.0);
  TimingConstraints timing(3);
  timing.add(0, 2, 1.0);  // a must stay within distance 1 of c
  const PartitionProblem problem(std::move(netlist), std::move(topo),
                                 std::move(timing));
  Assignment start(3, 4);
  start.set(0, 0);  // a
  start.set(1, 3);  // b (far)
  start.set(2, 0);  // c
  const auto result = solve_gfm(problem, start);
  EXPECT_TRUE(problem.is_feasible(result.assignment));
  // a can reach partition 1 at most (distance 1 from c at 0) unless c moves
  // too; either way the a-c constraint must hold.
  EXPECT_LE(problem.topology().delay(result.assignment[0], result.assignment[2]),
            1.0);
}

TEST(Gfm, StopsAfterMaxPasses) {
  auto fixture = make_fixture(3);
  ASSERT_TRUE(fixture.ok);
  GfmOptions options;
  options.max_passes = 1;
  const auto result = solve_gfm(fixture.problem, fixture.start, options);
  EXPECT_EQ(result.passes, 1);
}

/// The entries the all-entries queue popped current and unlocked, but
/// could not apply.
struct Rejections {
  std::int64_t capacity = 0;
  std::int64_t timing = 0;
};

// The queue solve_gfm used before its per-component gain lists: one lazy
// max-heap of every component's M - 1 entries, keyed by (gain, component,
// target), into which each refresh pushes all M - 1 again.  Kept here only
// as the reference the per-component queue must reproduce exactly.
GfmResult full_heap_gfm(const PartitionProblem& problem,
                        const Assignment& initial, Rejections& rejections) {
  struct Move {
    std::int32_t component;
    PartitionId from;
  };
  struct HeapEntry {
    double gain;
    std::int32_t component;
    PartitionId target;
    std::int64_t version;
    bool operator<(const HeapEntry& other) const noexcept {
      if (gain != other.gain) return gain < other.gain;
      if (component != other.component) return component > other.component;
      return target > other.target;
    }
  };
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  const auto& adjacency = problem.netlist().connection_matrix();
  const GfmOptions options;

  GfmResult result;
  result.assignment = initial;
  Assignment& assignment = result.assignment;
  DeltaEvaluator evaluator(problem);
  Placement placement(problem, assignment);
  placement.attach(evaluator);
  placement.attach_conflicts();
  std::vector<std::int64_t> version(static_cast<std::size_t>(n), 0);
  std::vector<bool> locked(static_cast<std::size_t>(n), false);

  for (std::int32_t pass = 0; pass < options.max_passes; ++pass) {
    std::fill(locked.begin(), locked.end(), false);
    std::priority_queue<HeapEntry> heap;
    const auto push_component = [&](std::int32_t j) {
      const std::span<const double> deltas = evaluator.move_deltas(assignment, j);
      for (PartitionId i = 0; i < m; ++i) {
        if (i == assignment[j]) continue;
        heap.push({-deltas[static_cast<std::size_t>(i)], j, i,
                   version[static_cast<std::size_t>(j)]});
      }
    };
    for (std::int32_t j = 0; j < n; ++j) push_component(j);

    std::vector<Move> applied;
    double cumulative = 0.0;
    double best_prefix_gain = 0.0;
    std::size_t best_prefix_length = 0;
    while (!heap.empty()) {
      const HeapEntry entry = heap.top();
      heap.pop();
      const std::int32_t j = entry.component;
      if (locked[static_cast<std::size_t>(j)]) continue;
      if (entry.version != version[static_cast<std::size_t>(j)]) continue;
      if (entry.target == assignment[j]) continue;
      if (!placement.fits(j, entry.target)) {
        ++rejections.capacity;
        continue;
      }
      if (placement.conflicts(j, entry.target) != 0) {
        ++rejections.timing;
        continue;
      }
      const PartitionId from = assignment[j];
      placement.move(j, entry.target);
      locked[static_cast<std::size_t>(j)] = true;
      ++version[static_cast<std::size_t>(j)];
      applied.push_back({j, from});
      ++result.moves_applied;
      cumulative += entry.gain;
      if (cumulative > best_prefix_gain) {
        best_prefix_gain = cumulative;
        best_prefix_length = applied.size();
      }
      for (const std::int32_t neighbor : adjacency.row_indices(j)) {
        if (locked[static_cast<std::size_t>(neighbor)]) continue;
        ++version[static_cast<std::size_t>(neighbor)];
        push_component(neighbor);
      }
    }
    for (std::size_t k = applied.size(); k-- > best_prefix_length;) {
      const Move& move = applied[k];
      placement.move(move.component, move.from);
      ++version[static_cast<std::size_t>(move.component)];
    }
    result.moves_kept += static_cast<std::int64_t>(best_prefix_length);
    result.passes = pass + 1;
    if (best_prefix_gain <= options.min_improvement) break;
  }
  result.objective = problem.objective(result.assignment);
  return result;
}

TEST(GfmOracle, PerComponentQueueMakesTheFullHeapsMoves) {
  Rejections rejections;
  std::int64_t moves = 0;
  std::int32_t wide = 0;
  const auto expect_same_moves = [&](const PartitionProblem& problem,
                                     const Assignment& start) {
    const GfmResult expected = full_heap_gfm(problem, start, rejections);
    const GfmResult actual = solve_gfm(problem, start);
    EXPECT_EQ(actual.assignment, expected.assignment);
    EXPECT_EQ(actual.objective, expected.objective);
    EXPECT_EQ(actual.passes, expected.passes);
    EXPECT_EQ(actual.moves_applied, expected.moves_applied);
    EXPECT_EQ(actual.moves_kept, expected.moves_kept);
    moves += expected.moves_applied;
  };
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE(seed);
    const test::OracleInstance instance = test::make_oracle_instance(seed);
    ASSERT_TRUE(instance.problem.is_feasible(instance.start));
    expect_same_moves(instance.problem, instance.start);
    if (instance.problem.num_partitions() > 64) ++wide;
  }
  // Two Table I circuits from their Table III start, with the timing
  // constraints (Table III) and without them (Table II).
  for (const char* name : {"ckta", "cktg"}) {
    SCOPED_TRACE(name);
    const CircuitInstance circuit = make_circuit(*find_preset(name));
    const InitialResult start =
        make_initial(circuit.problem, InitialStrategy::kQbpZeroWireCost,
                     ExperimentConfig{}.seed);
    ASSERT_TRUE(start.feasible);
    expect_same_moves(circuit.problem, start.assignment);
    expect_same_moves(circuit.problem.without_timing(), start.assignment);
  }
  // The sweep is not vacuous: passes move, some instances are wider than
  // 64 partitions, and queued heads are turned away for both reasons, so a
  // rejected head must hand over to its component's next entry.
  EXPECT_GT(moves, 1000);
  EXPECT_GE(wide, 1);
  EXPECT_GT(rejections.capacity, 0);
  EXPECT_GT(rejections.timing, 0);
}

// ----------------------------------------------------------------- GKL ----

class GklSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GklSweep, NeverWorsensAndStaysFeasible) {
  auto fixture = make_fixture(GetParam());
  ASSERT_TRUE(fixture.ok);
  const double start_cost = fixture.problem.objective(fixture.start);
  const auto result = solve_gkl(fixture.problem, fixture.start);
  EXPECT_LE(result.objective, start_cost + 1e-9);
  EXPECT_TRUE(fixture.problem.is_feasible(result.assignment));
  EXPECT_LE(result.outer_loops, 6);
}

TEST_P(GklSweep, DeterministicAcrossRuns) {
  auto fixture = make_fixture(GetParam());
  ASSERT_TRUE(fixture.ok);
  const auto a = solve_gkl(fixture.problem, fixture.start);
  const auto b = solve_gkl(fixture.problem, fixture.start);
  EXPECT_EQ(a.assignment, b.assignment);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GklSweep, ::testing::Range<std::uint64_t>(1, 9));

TEST(Gkl, SwapsPreserveCapacityExactly) {
  // Sizes differ: swaps must respect the tighter bin.
  Netlist netlist;
  netlist.add_component("big", 2.0);
  netlist.add_component("small", 1.0);
  netlist.add_wires(0, 1, 1);
  auto topo = PartitionTopology::grid(1, 2, CostKind::kManhattan);
  topo.set_capacities({2.0, 1.0});  // big fits only in partition 0
  const PartitionProblem problem(std::move(netlist), std::move(topo),
                                 TimingConstraints(2));
  Assignment start(2, 2);
  start.set(0, 0);
  start.set(1, 1);
  const auto result = solve_gkl(problem, start);
  // The only swap would put `big` (2.0) into capacity-1 partition: illegal.
  EXPECT_EQ(result.assignment, start);
  EXPECT_TRUE(problem.satisfies_capacity(result.assignment));
}

TEST(Gkl, PairedSwapEscapesWhereSingleMovesCannot) {
  // Two tight partitions, each full; improving requires a simultaneous
  // exchange -- exactly GKL's move class.
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 1.0);
  netlist.add_component("c", 1.0);
  netlist.add_component("d", 1.0);
  netlist.add_wires(0, 2, 5);  // a-c want to be together
  netlist.add_wires(1, 3, 5);  // b-d want to be together
  auto topo = PartitionTopology::grid(1, 2, CostKind::kManhattan, 2.0);
  const PartitionProblem problem(std::move(netlist), std::move(topo),
                                 TimingConstraints(4));
  Assignment start(4, 2);
  start.set(0, 0);
  start.set(1, 0);
  start.set(2, 1);
  start.set(3, 1);
  const auto result = solve_gkl(problem, start);
  EXPECT_DOUBLE_EQ(result.objective, 0.0);
  EXPECT_GE(result.swaps_kept, 1);
}

TEST(Gkl, HonorsOuterLoopCutoff) {
  auto fixture = make_fixture(5);
  ASSERT_TRUE(fixture.ok);
  GklOptions options;
  options.max_outer_loops = 2;
  const auto result = solve_gkl(fixture.problem, fixture.start, options);
  EXPECT_LE(result.outer_loops, 2);
}

TEST(Gkl, TimingGuardsSwaps) {
  // Swapping would reduce wirelength but break a timing constraint.
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 1.0);
  netlist.add_wires(0, 1, 1);
  auto topo = PartitionTopology::grid(1, 3, CostKind::kManhattan, 1.0);
  TimingConstraints timing(2);
  timing.add(0, 1, 2.0);
  const PartitionProblem problem(std::move(netlist), std::move(topo),
                                 std::move(timing));
  Assignment start(2, 3);
  start.set(0, 0);
  start.set(1, 2);
  ASSERT_TRUE(problem.is_feasible(start));
  const auto result = solve_gkl(problem, start);
  EXPECT_TRUE(problem.is_feasible(result.assignment));
}

TEST(Gkl, RefusesTopologiesItsSwapDeltasAssume) {
  // PartitionProblem::validate refuses these for file and wire input, but
  // the constructor does not; solve_gkl must refuse them itself rather than
  // return swaps scored with wrong deltas.
  const auto problem_with = [](Matrix<double> wire_cost, Matrix<double> delay) {
    Netlist netlist;
    netlist.add_component("a", 1.0);
    netlist.add_component("b", 1.0);
    netlist.add_wires(0, 1, 3);
    return PartitionProblem(
        std::move(netlist),
        PartitionTopology::custom(std::move(wire_cost), std::move(delay),
                                  {2.0, 2.0}),
        TimingConstraints(2));
  };
  const auto refusal = [](const PartitionProblem& problem) -> std::string {
    Assignment start(2, 2);
    start.set(0, 0);
    start.set(1, 1);
    EXPECT_TRUE(problem.is_feasible(start));
    const auto saved = check::fail_mode();
    check::set_fail_mode(check::FailMode::kThrow);
    std::string message;
    try {
      (void)solve_gkl(problem, start);
    } catch (const ContractViolation& violation) {
      message = violation.what();
    }
    check::set_fail_mode(saved);
    return message;
  };
  const auto square = [](double d00, double d01, double d10, double d11) {
    return Matrix<double>::from_rows({{d00, d01}, {d10, d11}});
  };
  EXPECT_NE(refusal(problem_with(square(0.5, 1, 1, 0), square(0, 1, 1, 0)))
                .find("zero B diagonal"),
            std::string::npos);
  EXPECT_NE(refusal(problem_with(square(0, 1, 1, 0), square(0, 1, 1, 0.25)))
                .find("zero D diagonal"),
            std::string::npos);
  EXPECT_NE(refusal(problem_with(square(0, -1, 1, 0), square(0, 1, 1, 0)))
                .find("B >= 0"),
            std::string::npos);
  // The same problem with a legal topology is solved.
  EXPECT_EQ(refusal(problem_with(square(0, 1, 2, 0), square(0, 1, 1, 0))), "");
}

// The exhaustive best-pair scan solve_gkl used before its bounded search:
// every unlocked cross-partition pair a < b is scored before each swap.
// Kept here only as the reference the search must reproduce exactly.
GklResult exhaustive_gkl(const PartitionProblem& problem,
                         const Assignment& initial) {
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  const auto& sizes = problem.netlist().sizes();
  const auto& p = problem.linear_cost_matrix();
  const auto& adjacency = problem.netlist().connection_matrix();
  const auto& topology = problem.topology();
  const double alpha = problem.alpha();
  const double beta = problem.beta();
  const GklOptions options;

  GklResult result;
  result.assignment = initial;
  Assignment& assignment = result.assignment;
  CapacityLedger ledger(assignment, sizes, topology.capacities());

  Matrix<double> inc(n, m, 0.0);
  const auto rebuild_inc_row = [&](std::int32_t j) {
    auto row = inc.row(j);
    for (std::int32_t i = 0; i < m; ++i) row[static_cast<std::size_t>(i)] = 0.0;
    const auto neighbors = adjacency.row_indices(j);
    const auto wires = adjacency.row_values(j);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const PartitionId other = assignment[neighbors[k]];
      for (std::int32_t i = 0; i < m; ++i) {
        row[static_cast<std::size_t>(i)] +=
            wires[k] * (topology.wire_cost(i, other) + topology.wire_cost(other, i));
      }
    }
  };
  for (std::int32_t j = 0; j < n; ++j) rebuild_inc_row(j);

  const auto swap_delta = [&](std::int32_t j1, std::int32_t j2) {
    const PartitionId p1 = assignment[j1];
    const PartitionId p2 = assignment[j2];
    const double w = adjacency.value_or(j1, j2, 0);
    const double edge =
        w * (topology.wire_cost(p1, p2) + topology.wire_cost(p2, p1));
    double delta = beta * (inc(j1, p2) + inc(j2, p1) - inc(j1, p1) -
                           inc(j2, p2) + 2.0 * edge);
    if (!p.empty()) {
      delta += alpha * (p(p2, j1) - p(p1, j1) + p(p1, j2) - p(p2, j2));
    }
    return delta;
  };

  const auto swap_feasible = [&](std::int32_t j1, std::int32_t j2) {
    const PartitionId p1 = assignment[j1];
    const PartitionId p2 = assignment[j2];
    const double s1 = sizes[static_cast<std::size_t>(j1)];
    const double s2 = sizes[static_cast<std::size_t>(j2)];
    if (ledger.usage(p1) - s1 + s2 > ledger.capacity(p1) + CapacityLedger::kTolerance)
      return false;
    if (ledger.usage(p2) - s2 + s1 > ledger.capacity(p2) + CapacityLedger::kTolerance)
      return false;
    return problem.timing().component_feasible_at(assignment, topology, j1, p2,
                                                  j2, p1) &&
           problem.timing().component_feasible_at(assignment, topology, j2, p1,
                                                  j1, p2);
  };

  const auto apply_swap = [&](std::int32_t j1, std::int32_t j2) {
    const PartitionId p1 = assignment[j1];
    const PartitionId p2 = assignment[j2];
    const double s1 = sizes[static_cast<std::size_t>(j1)];
    const double s2 = sizes[static_cast<std::size_t>(j2)];
    ledger.remove(p1, s1);
    ledger.add(p2, s1);
    ledger.remove(p2, s2);
    ledger.add(p1, s2);
    assignment.set(j1, p2);
    assignment.set(j2, p1);
    for (const std::int32_t moved : {j1, j2}) {
      const PartitionId from = moved == j1 ? p1 : p2;
      const PartitionId to = moved == j1 ? p2 : p1;
      const auto neighbors = adjacency.row_indices(moved);
      const auto wires = adjacency.row_values(moved);
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const std::int32_t other = neighbors[k];
        if (other == j1 || other == j2) continue;
        auto row = inc.row(other);
        for (std::int32_t i = 0; i < m; ++i) {
          row[static_cast<std::size_t>(i)] +=
              wires[k] *
              (topology.wire_cost(i, to) + topology.wire_cost(to, i) -
               topology.wire_cost(i, from) - topology.wire_cost(from, i));
        }
      }
    }
    rebuild_inc_row(j1);
    rebuild_inc_row(j2);
  };

  std::vector<bool> locked(static_cast<std::size_t>(n), false);
  for (std::int32_t outer = 0; outer < options.max_outer_loops; ++outer) {
    std::fill(locked.begin(), locked.end(), false);
    std::vector<std::pair<std::int32_t, std::int32_t>> applied;
    double cumulative = 0.0;
    double best_prefix_gain = 0.0;
    std::size_t best_prefix_length = 0;
    for (;;) {
      std::int32_t best_a = -1;
      std::int32_t best_b = -1;
      double best_delta = 0.0;
      bool have_best = false;
      for (std::int32_t a = 0; a < n; ++a) {
        if (locked[static_cast<std::size_t>(a)]) continue;
        for (std::int32_t b = a + 1; b < n; ++b) {
          if (locked[static_cast<std::size_t>(b)]) continue;
          if (assignment[a] == assignment[b]) continue;
          const double delta = swap_delta(a, b);
          if (have_best && delta >= best_delta) continue;
          if (!swap_feasible(a, b)) continue;
          best_delta = delta;
          best_a = a;
          best_b = b;
          have_best = true;
        }
      }
      if (!have_best) break;

      apply_swap(best_a, best_b);
      locked[static_cast<std::size_t>(best_a)] = true;
      locked[static_cast<std::size_t>(best_b)] = true;
      applied.emplace_back(best_a, best_b);
      ++result.swaps_applied;
      cumulative += -best_delta;
      if (cumulative > best_prefix_gain) {
        best_prefix_gain = cumulative;
        best_prefix_length = applied.size();
      }
    }
    for (std::size_t k = applied.size(); k-- > best_prefix_length;) {
      apply_swap(applied[k].first, applied[k].second);
    }
    result.swaps_kept += static_cast<std::int64_t>(best_prefix_length);
    result.outer_loops = outer + 1;
    if (best_prefix_gain <= options.min_improvement) break;
  }
  result.objective = problem.objective(result.assignment);
  return result;
}

TEST(GklOracle, BoundedSearchPicksTheExhaustiveScansSwaps) {
  std::int64_t swaps = 0;
  std::int32_t wide = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE(seed);
    const test::OracleInstance instance = test::make_oracle_instance(seed);
    ASSERT_TRUE(instance.problem.is_feasible(instance.start));
    const GklResult expected = exhaustive_gkl(instance.problem, instance.start);
    const GklResult actual = solve_gkl(instance.problem, instance.start);
    EXPECT_EQ(actual.assignment, expected.assignment);
    EXPECT_EQ(actual.objective, expected.objective);
    EXPECT_EQ(actual.swaps_applied, expected.swaps_applied);
    EXPECT_EQ(actual.swaps_kept, expected.swaps_kept);
    EXPECT_EQ(actual.outer_loops, expected.outer_loops);
    swaps += expected.swaps_applied;
    if (instance.problem.num_partitions() > 64) ++wide;
  }
  // The sweep is not vacuous: passes swap, and some instances are wider
  // than a 64-bit partition mask.
  EXPECT_GT(swaps, 1000);
  EXPECT_GE(wide, 1);
}

// --------------------------------------------- cross-method comparison ----

class MethodComparison : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MethodComparison, AllMethodsBeatOrMatchTheStart) {
  auto fixture = make_fixture(GetParam(), /*capacity_factor=*/2.0);
  ASSERT_TRUE(fixture.ok);
  const double start_cost = fixture.problem.objective(fixture.start);
  const auto gfm = solve_gfm(fixture.problem, fixture.start);
  const auto gkl = solve_gkl(fixture.problem, fixture.start);
  EXPECT_LE(gfm.objective, start_cost + 1e-9);
  EXPECT_LE(gkl.objective, start_cost + 1e-9);
  // Both remain violation-free ("guarantee that the final solution will be
  // violation-free").
  EXPECT_TRUE(fixture.problem.is_feasible(gfm.assignment));
  EXPECT_TRUE(fixture.problem.is_feasible(gkl.assignment));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MethodComparison,
                         ::testing::Values(2u, 4u, 6u, 8u));

}  // namespace
}  // namespace qbp
