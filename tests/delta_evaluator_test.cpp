// DeltaEvaluator: the unified incremental evaluation layer.  Every delta it
// reports -- exact or cached -- must equal the brute difference of the full
// evaluation (penalized_value / objective), and the cache must stay exact
// across arbitrary commit sequences.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/delta_evaluator.hpp"
#include "core/qhat.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

constexpr double kPenalty = 50.0;

TEST(DeltaEvaluator, MoveDeltaMatchesPenalizedValueDifference) {
  const PartitionProblem problem = test::make_tiny_problem({.seed = 7});
  const QhatMatrix qhat(problem, kPenalty);
  DeltaEvaluator evaluator(problem, kPenalty);
  Rng rng(3);

  for (std::int32_t trial = 0; trial < 40; ++trial) {
    const Assignment assignment = test::random_complete(
        problem.num_components(), problem.num_partitions(), rng);
    const auto j = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_components())));
    const auto target = static_cast<PartitionId>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_partitions())));

    const double before = qhat.penalized_value(assignment);
    Assignment moved = assignment;
    moved.set(j, target);
    const double exact = qhat.penalized_value(moved) - before;

    EXPECT_NEAR(evaluator.move_delta(assignment, j, target), exact, 1e-9);

    evaluator.invalidate();
    const auto deltas = evaluator.move_deltas(assignment, j);
    EXPECT_NEAR(deltas[static_cast<std::size_t>(target)], exact, 1e-9);
    EXPECT_DOUBLE_EQ(deltas[static_cast<std::size_t>(assignment[j])], 0.0);
  }
}

TEST(DeltaEvaluator, SwapDeltaMatchesPenalizedValueDifference) {
  const PartitionProblem problem =
      test::make_tiny_problem({.with_linear_term = true, .seed = 11});
  const QhatMatrix qhat(problem, kPenalty);
  const DeltaEvaluator evaluator(problem, kPenalty);
  Rng rng(5);

  for (std::int32_t trial = 0; trial < 40; ++trial) {
    const Assignment assignment = test::random_complete(
        problem.num_components(), problem.num_partitions(), rng);
    const auto a = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_components())));
    const auto b = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_components())));

    const double before = qhat.penalized_value(assignment);
    Assignment swapped = assignment;
    swapped.set(a, assignment[b]);
    swapped.set(b, assignment[a]);
    const double exact = qhat.penalized_value(swapped) - before;

    EXPECT_NEAR(evaluator.swap_delta(assignment, a, b), exact, 1e-9);
  }
}

TEST(DeltaEvaluator, ObjectiveModeMatchesObjectiveDifference) {
  const PartitionProblem problem =
      test::make_tiny_problem({.with_linear_term = true, .seed = 13});
  DeltaEvaluator evaluator(problem, 0.0);
  Rng rng(9);

  for (std::int32_t trial = 0; trial < 40; ++trial) {
    const Assignment assignment = test::random_complete(
        problem.num_components(), problem.num_partitions(), rng);
    const auto j = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_components())));
    const auto target = static_cast<PartitionId>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_partitions())));
    Assignment moved = assignment;
    moved.set(j, target);
    const double exact = problem.objective(moved) - problem.objective(assignment);
    EXPECT_NEAR(evaluator.move_delta(assignment, j, target), exact, 1e-9);

    evaluator.invalidate();
    const auto deltas = evaluator.move_deltas(assignment, j);
    EXPECT_NEAR(deltas[static_cast<std::size_t>(target)], exact, 1e-9);
  }
}

TEST(DeltaEvaluator, CacheStaysExactAcrossCommits) {
  const PartitionProblem problem = test::make_tiny_problem(
      {.num_components = 10, .wire_probability = 0.4, .seed = 17});
  const QhatMatrix qhat(problem, kPenalty);
  DeltaEvaluator evaluator(problem, kPenalty);
  Rng rng(21);

  Assignment assignment = test::random_complete(
      problem.num_components(), problem.num_partitions(), rng);

  for (std::int32_t step = 0; step < 120; ++step) {
    const auto j = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_components())));

    // Every cached row entry must equal the brute difference.
    const auto deltas = evaluator.move_deltas(assignment, j);
    const double before = qhat.penalized_value(assignment);
    for (PartitionId i = 0; i < problem.num_partitions(); ++i) {
      Assignment moved = assignment;
      moved.set(j, i);
      ASSERT_NEAR(deltas[static_cast<std::size_t>(i)],
                  qhat.penalized_value(moved) - before, 1e-9)
          << "step " << step << " component " << j << " target " << i;
    }

    // Mutate through the evaluator: alternate moves and swaps.
    if (step % 3 == 2) {
      const auto b = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(problem.num_components())));
      evaluator.commit_swap(assignment, j, b);
    } else {
      const auto target = static_cast<PartitionId>(
          rng.next_below(static_cast<std::uint64_t>(problem.num_partitions())));
      evaluator.commit_move(assignment, j, target);
    }
  }

  // The sequence revisits components whose neighborhood did not change in
  // between, so the cache must actually get hits.
  EXPECT_GT(evaluator.cache_hits(), 0u);
  EXPECT_GT(evaluator.cache_misses(), 0u);
}

TEST(DeltaEvaluator, SameComponentRepeatedQueriesHitCache) {
  const PartitionProblem problem = test::make_tiny_problem({.seed = 23});
  DeltaEvaluator evaluator(problem, kPenalty);
  Rng rng(1);
  const Assignment assignment = test::random_complete(
      problem.num_components(), problem.num_partitions(), rng);

  (void)evaluator.move_deltas(assignment, 0);
  EXPECT_EQ(evaluator.cache_misses(), 1u);
  for (int k = 0; k < 5; ++k) (void)evaluator.move_deltas(assignment, 0);
  EXPECT_EQ(evaluator.cache_misses(), 1u);
  EXPECT_EQ(evaluator.cache_hits(), 5u);

  // A component's *own* move keeps its row hot (the row depends only on the
  // positions of its neighbors and timing partners).
  Assignment mutated = assignment;
  const PartitionId target = (assignment[0] + 1) % problem.num_partitions();
  evaluator.commit_move(mutated, 0, target);
  (void)evaluator.move_deltas(mutated, 0);
  EXPECT_EQ(evaluator.cache_hits(), 6u);
}

}  // namespace
}  // namespace qbp
