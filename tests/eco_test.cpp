// The ECO warm re-solve against the three-placement recipe it replaced.
// eco_resolve legalizes capacity, walks and polishes on one core/placement
// (one C1 ledger, one conflict table); the reference below runs the same
// steps the way the recipe used to, each on a placement of its own built
// fresh from the previous step's assignment.  Both must make the same
// moves to the same answer, and the one placement's kept ledger and
// conflict rows must match fresh builds after the walk and after the
// polish.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/circuits.hpp"
#include "bench_support/eco_stream.hpp"
#include "core/delta_evaluator.hpp"
#include "core/initial.hpp"
#include "core/repair.hpp"
#include "engine/portfolio.hpp"
#include "service/eco.hpp"
#include "test_support.hpp"

namespace qbp::service {
namespace {

constexpr std::int32_t kMaxSweeps = 8;
constexpr double kMinGain = 1e-9;

struct ReferenceResult {
  Assignment assignment;
  bool feasible = false;
  std::int64_t moves = 0;
};

/// Step 1 on a placement of its own.
bool reference_legalize(const PartitionProblem& problem, Assignment& assignment,
                        std::int64_t& moves) {
  const std::vector<double>& sizes = problem.netlist().sizes();
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  Placement placement(problem, assignment);
  const CapacityLedger& ledger = placement.ledger();
  const std::int64_t budget = 4 * static_cast<std::int64_t>(n) + 16;
  std::int64_t used = 0;
  for (PartitionId i = 0; i < m; ++i) {
    while (ledger.slack(i) < -CapacityLedger::kTolerance) {
      if (++used > budget) return false;
      std::int32_t mover = -1;
      for (std::int32_t j = 0; j < n; ++j) {
        if (assignment[j] != i) continue;
        if (mover < 0 || sizes[static_cast<std::size_t>(j)] >
                             sizes[static_cast<std::size_t>(mover)]) {
          mover = j;
        }
      }
      if (mover < 0) return false;
      PartitionId target = -1;
      for (PartitionId t = 0; t < m; ++t) {
        if (t == i || !placement.fits(mover, t)) continue;
        if (target < 0 || ledger.slack(t) > ledger.slack(target)) target = t;
      }
      if (target < 0) return false;
      placement.move(mover, target);
      ++moves;
    }
  }
  return true;
}

/// Step 3 on a placement of its own, with its own evaluator and conflict
/// table built from the walked assignment.
std::int64_t reference_polish(const PartitionProblem& problem,
                              Assignment& assignment) {
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  DeltaEvaluator evaluator(problem, /*penalty=*/0.0);
  Placement placement(problem, assignment);
  placement.attach(evaluator);
  placement.attach_conflicts();
  std::int64_t commits = 0;
  for (std::int32_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool moved = false;
    for (std::int32_t j = 0; j < n; ++j) {
      const std::span<const double> deltas =
          evaluator.move_deltas(assignment, j);
      PartitionId best = -1;
      double best_delta = -kMinGain;
      for (PartitionId t = 0; t < m; ++t) {
        if (t == assignment[j]) continue;
        if (!(deltas[static_cast<std::size_t>(t)] < best_delta)) continue;
        if (!placement.fits(j, t) || placement.conflicts(j, t) != 0) continue;
        best = t;
        best_delta = deltas[static_cast<std::size_t>(t)];
      }
      if (best < 0) continue;
      placement.move(j, best);
      ++commits;
      moved = true;
    }
    if (!moved) break;
  }
  return commits;
}

/// The three-placement recipe: legalize, then walk a fresh placement of a
/// copy (its verdict a full C1/C2 rescan), then polish.
ReferenceResult three_placement_eco(const PartitionProblem& problem,
                                    Assignment assignment, std::uint64_t seed) {
  ReferenceResult result;
  const auto finish = [&](bool feasible) {
    result.assignment = std::move(assignment);
    result.feasible = feasible;
    return result;
  };
  if (!reference_legalize(problem, assignment, result.moves)) {
    return finish(false);
  }
  Assignment walked = assignment;
  Placement walk(problem, walked);
  RepairOptions options;
  options.seed = seed;
  result.moves += repair_timing(walk, options).moves;
  assignment = walked;
  if (!problem.satisfies_capacity(assignment) ||
      !problem.satisfies_timing(assignment)) {
    return finish(false);
  }
  result.moves += reference_polish(problem, assignment);
  return finish(true);
}

/// `problem` with partition `i`'s capacity set to `capacity`.
PartitionProblem with_capacity(const PartitionProblem& problem, PartitionId i,
                               double capacity) {
  PartitionTopology topology = problem.topology();
  topology.set_capacity(i, capacity);
  return PartitionProblem(problem.netlist(), std::move(topology),
                          problem.timing(), problem.linear_cost_matrix(),
                          problem.alpha(), problem.beta());
}

struct Moves {
  std::int64_t legalize = 0;
  std::int64_t walk = 0;
  std::int64_t polish = 0;
  std::int32_t runs = 0;
  std::int32_t feasible = 0;
};

/// eco_resolve against the reference, then the same steps on one placement
/// with its kept parts checked against fresh builds between them.
void expect_one_placement_matches(const PartitionProblem& problem,
                                  const Assignment& start, std::uint64_t seed,
                                  Moves& moves) {
  const ReferenceResult expected = three_placement_eco(problem, start, seed);
  const engine::SolverResult actual = eco_resolve(problem, start, seed, {});
  EXPECT_EQ(actual.best, expected.assignment);
  EXPECT_EQ(actual.found_feasible, expected.feasible);
  EXPECT_EQ(actual.iterations, expected.moves);
  if (expected.feasible) {
    EXPECT_EQ(actual.best_feasible_objective,
              problem.objective(expected.assignment));
  }

  Assignment assignment = start;
  DeltaEvaluator evaluator(problem, /*penalty=*/0.0);
  Placement placement(problem, assignment);
  std::int64_t legalized = 0;
  RepairResult walked;
  std::int64_t polished = 0;
  if (legalize_capacity(placement, legalized)) {
    RepairOptions options;
    options.seed = seed;
    walked = repair_timing(placement, options);
    EXPECT_EQ(test::placement_drift(placement), "") << "after the walk";
    if (walked.feasible) {
      bool cancelled = false;
      polished = eco_polish(placement, evaluator, {}, cancelled);
      EXPECT_EQ(test::placement_drift(placement), "") << "after the polish";
    }
  }
  EXPECT_EQ(assignment, actual.best);
  EXPECT_EQ(legalized + walked.moves + polished, actual.iterations);
  moves.legalize += legalized;
  moves.walk += walked.moves;
  moves.polish += polished;
  ++moves.runs;
  if (actual.found_feasible) ++moves.feasible;
}

TEST(EcoOracle, OnePlacementMakesTheThreePlacementsMoves) {
  // The walk seed a warm job gets: start 0's under the bench's seed 7.
  const std::uint64_t seed = engine::start_stream(7, 0)();
  Moves plain;
  Moves cut;
  for (const std::int32_t n : {200, 400, 800}) {
    const PartitionProblem base = make_scaling_problem(n, 7);
    const InitialResult start =
        make_initial(base, InitialStrategy::kQbpZeroWireCost, 7);
    ASSERT_TRUE(start.feasible) << n;
    for (std::int32_t v = 1; v <= 8; ++v) {
      SCOPED_TRACE(std::to_string(n) + " variant " + std::to_string(v));
      const PartitionProblem variant = make_eco_variant(base, 7, v);
      expect_one_placement_matches(variant, start.assignment, seed, plain);

      // Cut partition v mod M below its load by half its largest member,
      // so legalization must move that member out.
      const CapacityLedger load(start.assignment, variant.netlist().sizes(),
                                variant.topology().capacities());
      const auto i = static_cast<PartitionId>(v % base.num_partitions());
      double largest = 0.0;
      for (std::int32_t j = 0; j < n; ++j) {
        if (start.assignment[j] == i) {
          largest = std::max(largest, variant.netlist().component_size(j));
        }
      }
      const PartitionProblem tight =
          with_capacity(variant, i, load.usage(i) - 0.5 * largest);
      expect_one_placement_matches(tight, start.assignment, seed, cut);
    }
  }
  RecordProperty("plain_legalize_moves", std::to_string(plain.legalize));
  RecordProperty("plain_walk_moves", std::to_string(plain.walk));
  RecordProperty("plain_polish_moves", std::to_string(plain.polish));
  RecordProperty("cut_legalize_moves", std::to_string(cut.legalize));
  RecordProperty("cut_walk_moves", std::to_string(cut.walk));
  RecordProperty("cut_polish_moves", std::to_string(cut.polish));
  // Not vacuous: the plain variants polish; the cut ones legalize, walk
  // and polish.  Every run ends feasible.
  EXPECT_EQ(plain.runs, 24);
  EXPECT_EQ(cut.runs, 24);
  EXPECT_EQ(plain.feasible, 24);
  EXPECT_EQ(cut.feasible, 24);
  EXPECT_GT(plain.polish, 0);
  EXPECT_GE(cut.legalize, 24);
  EXPECT_GT(cut.walk, 0);
  EXPECT_GT(cut.polish, 0);
}

}  // namespace
}  // namespace qbp::service
