// DeltaEvaluator: the unified incremental evaluation layer.  Every delta it
// reports -- exact or cached -- must equal the brute difference of the full
// evaluation (penalized_value / objective), and the rows that commits patch,
// and the STEP 3 eta read off them, must stay exact across arbitrary commit
// sequences.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/burkard.hpp"
#include "core/delta_evaluator.hpp"
#include "test_support.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

constexpr double kPenalty = 50.0;

TEST(DeltaEvaluator, MoveDeltaMatchesPenalizedValueDifference) {
  const PartitionProblem problem = test::make_tiny_problem({.seed = 7});
  const DeltaEvaluator evaluator(problem, kPenalty);
  Rng rng(3);

  for (std::int32_t trial = 0; trial < 40; ++trial) {
    const Assignment assignment = test::random_complete(
        problem.num_components(), problem.num_partitions(), rng);
    const auto j = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_components())));
    const auto target = static_cast<PartitionId>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_partitions())));

    const double before = problem.penalized_value(assignment, kPenalty);
    Assignment moved = assignment;
    moved.set(j, target);
    const double exact = problem.penalized_value(moved, kPenalty) - before;

    EXPECT_NEAR(evaluator.move_delta(assignment, j, target), exact, 1e-9);

    DeltaEvaluator fresh(problem, kPenalty);
    const auto deltas = fresh.move_deltas(assignment, j);
    EXPECT_NEAR(deltas[static_cast<std::size_t>(target)], exact, 1e-9);
    EXPECT_DOUBLE_EQ(deltas[static_cast<std::size_t>(assignment[j])], 0.0);
  }
}

TEST(DeltaEvaluator, SwapDeltaMatchesPenalizedValueDifference) {
  const PartitionProblem problem =
      test::make_tiny_problem({.with_linear_term = true, .seed = 11});
  const DeltaEvaluator evaluator(problem, kPenalty);
  Rng rng(5);

  for (std::int32_t trial = 0; trial < 40; ++trial) {
    const Assignment assignment = test::random_complete(
        problem.num_components(), problem.num_partitions(), rng);
    const auto a = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_components())));
    const auto b = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_components())));

    const double before = problem.penalized_value(assignment, kPenalty);
    Assignment swapped = assignment;
    swapped.set(a, assignment[b]);
    swapped.set(b, assignment[a]);
    const double exact = problem.penalized_value(swapped, kPenalty) - before;

    EXPECT_NEAR(evaluator.swap_delta(assignment, a, b), exact, 1e-9);
  }
}

TEST(DeltaEvaluator, ObjectiveModeMatchesObjectiveDifference) {
  const PartitionProblem problem =
      test::make_tiny_problem({.with_linear_term = true, .seed = 13});
  const DeltaEvaluator evaluator(problem, 0.0);
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

    DeltaEvaluator fresh(problem, 0.0);
    const auto deltas = fresh.move_deltas(assignment, j);
    EXPECT_NEAR(deltas[static_cast<std::size_t>(target)], exact, 1e-9);
  }
}

TEST(DeltaEvaluator, CacheStaysExactAcrossCommits) {
  const PartitionProblem problem = test::make_tiny_problem(
      {.num_components = 10,
       .wire_probability = 0.4,
       .with_linear_term = true,
       .seed = 17});
  DeltaEvaluator evaluator(problem, kPenalty);
  Rng rng(21);

  Assignment assignment = test::random_complete(
      problem.num_components(), problem.num_partitions(), rng);

  for (std::int32_t step = 0; step < 120; ++step) {
    const auto j = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_components())));

    // Every cached row entry must equal the brute difference.
    const auto deltas = evaluator.move_deltas(assignment, j);
    const double before = problem.penalized_value(assignment, kPenalty);
    for (PartitionId i = 0; i < problem.num_partitions(); ++i) {
      Assignment moved = assignment;
      moved.set(j, i);
      ASSERT_NEAR(deltas[static_cast<std::size_t>(i)],
                  problem.penalized_value(moved, kPenalty) - before, 1e-9)
          << "step " << step << " component " << j << " target " << i;
    }

    // So must the swap delta read off the (patched) rows, for every partner.
    for (std::int32_t b = 0; b < problem.num_components(); ++b) {
      Assignment swapped = assignment;
      swapped.set(j, assignment[b]);
      swapped.set(b, assignment[j]);
      ASSERT_NEAR(evaluator.cached_swap_delta(assignment, j, b),
                  problem.penalized_value(swapped, kPenalty) - before, 1e-9)
          << "step " << step << " swap (" << j << ", " << b << ")";
    }

    // Mutate through the evaluator: alternate moves and swaps (two moves).
    if (step % 3 == 2) {
      const auto b = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(problem.num_components())));
      const PartitionId pj = assignment[j];
      evaluator.commit_move(assignment, j, assignment[b]);
      evaluator.commit_move(assignment, b, pj);
    } else {
      const auto target = static_cast<PartitionId>(
          rng.next_below(static_cast<std::uint64_t>(problem.num_partitions())));
      evaluator.commit_move(assignment, j, target);
    }
  }

  // Built rows are patched, never rebuilt: each row misses once, on its
  // first read, and every later read hits.
  EXPECT_GT(evaluator.cache_hits(), 0u);
  EXPECT_EQ(evaluator.cache_misses(),
            static_cast<std::uint64_t>(problem.num_components()));
}

TEST(DeltaEvaluator, PatchedRowsBitIdenticalOnIntegerData) {
  // Integer wires, Manhattan B and D, an integer penalty and no linear
  // term -- the shape of every bench instance: each row entry is an
  // integer, so the patched rows and the swap deltas read off them must
  // equal the one-off path bit for bit, not merely within rounding.
  const PartitionProblem problem = test::make_tiny_problem(
      {.num_components = 12,
       .num_partitions = 4,
       .constraint_probability = 0.4,
       .seed = 29});
  DeltaEvaluator evaluator(problem, kPenalty);
  Rng rng(31);
  Assignment assignment = test::random_complete(
      problem.num_components(), problem.num_partitions(), rng);
  const auto n = static_cast<std::uint64_t>(problem.num_components());
  const auto m = static_cast<std::uint64_t>(problem.num_partitions());

  // Build every row, then let a commit sequence patch them.
  for (std::int32_t j = 0; j < problem.num_components(); ++j) {
    (void)evaluator.move_deltas(assignment, j);
  }
  for (std::int32_t step = 0; step < 200; ++step) {
    const auto a = static_cast<std::int32_t>(rng.next_below(n));
    if (step % 2 == 1) {
      const auto b = static_cast<std::int32_t>(rng.next_below(n));
      const PartitionId pa = assignment[a];
      evaluator.commit_move(assignment, a, assignment[b]);
      evaluator.commit_move(assignment, b, pa);
    } else {
      evaluator.commit_move(assignment, a,
                            static_cast<PartitionId>(rng.next_below(m)));
    }
  }

  for (std::int32_t a = 0; a < problem.num_components(); ++a) {
    const auto deltas = evaluator.move_deltas(assignment, a);
    for (PartitionId i = 0; i < problem.num_partitions(); ++i) {
      EXPECT_EQ(deltas[static_cast<std::size_t>(i)],
                evaluator.move_delta(assignment, a, i));
    }
    for (std::int32_t b = 0; b < problem.num_components(); ++b) {
      EXPECT_EQ(evaluator.cached_swap_delta(assignment, a, b),
                evaluator.swap_delta(assignment, a, b))
          << "swap (" << a << ", " << b << ")";
    }
  }
  EXPECT_EQ(evaluator.cache_misses(), n);
}

/// What a patched value must equal its fresh build to.
enum class Match { kBitForBit, kRelative };

/// Drive an evaluator, whose rows eta() builds at `start`, through
/// Burkard-shaped jumps: random jumps that move 10-40% of the components,
/// and every fourth round a restart-style return to the start plus a 10%
/// kick.  Each jump is followed, then polished by a few commits; after
/// every follow the rows and eta must equal a fresh evaluator's -- bit for
/// bit, or to 1e-9 relative.  Rows are patched, never rebuilt.
void expect_follow_matches_fresh_rows(const PartitionProblem& problem,
                                      double penalty, const Assignment& start,
                                      Match rows, Match eta,
                                      std::uint64_t seed) {
  DeltaEvaluator evaluator(problem, penalty);
  Rng rng(seed);
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  const auto size = static_cast<std::size_t>(problem.flat_size());
  std::vector<double> patched_eta(size);
  std::vector<double> fresh_eta(size);
  Assignment u = start;
  evaluator.eta(u, patched_eta);

  const auto expect_match = [](Match match, double have, double want) {
    return match == Match::kBitForBit ? have == want
                                      : check::within_relative(have, want, 1e-9);
  };
  std::int64_t moved = 0;
  for (std::int32_t round = 0; round < 24; ++round) {
    const Assignment before = u;
    u = round % 4 == 3 ? test::random_jump(start, 0.10, rng)
                       : test::random_jump(u, rng.next_double(0.10, 0.40), rng);
    for (std::int32_t j = 0; j < n; ++j) moved += before[j] != u[j] ? 1 : 0;
    evaluator.follow(u);

    DeltaEvaluator fresh(problem, penalty);
    evaluator.eta(u, patched_eta);
    fresh.eta(u, fresh_eta);
    for (std::size_t r = 0; r < size; ++r) {
      ASSERT_TRUE(expect_match(eta, patched_eta[r], fresh_eta[r]))
          << "round " << round << " eta entry " << r << ": " << patched_eta[r]
          << " vs " << fresh_eta[r];
    }
    for (std::int32_t j = 0; j < n; ++j) {
      const auto patched = evaluator.move_deltas(u, j);
      const auto expected = fresh.move_deltas(u, j);
      for (PartitionId i = 0; i < m; ++i) {
        const double want = expected[static_cast<std::size_t>(i)];
        const double have = patched[static_cast<std::size_t>(i)];
        ASSERT_TRUE(expect_match(rows, have, want))
            << "round " << round << " row " << j << " column " << i << ": "
            << have << " vs " << want;
      }
    }

    // Polish-style commits between jumps keep patching the same rows.
    for (std::int32_t step = 0; step < 5; ++step) {
      const auto j = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      evaluator.commit_move(u, j, static_cast<PartitionId>(rng.next_below(
                                      static_cast<std::uint64_t>(m))));
    }
  }
  // Not vacuous: the jumps moved components; and no row was ever rebuilt.
  EXPECT_GT(moved, 24 * n / 10);
  EXPECT_EQ(evaluator.cache_misses(), static_cast<std::uint64_t>(n));
}

TEST(DeltaEvaluator, FollowMatchesFreshRowsBitForBitOnIntegerData) {
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    const PartitionProblem problem = test::make_tiny_problem(
        {.num_components = 60,
         .num_partitions = 6,
         .wire_probability = 0.12,
         .constraint_probability = 0.08,
         .seed = seed});
    Rng rng(seed ^ 0x5eedu);
    const Assignment start = test::random_complete(
        problem.num_components(), problem.num_partitions(), rng);
    expect_follow_matches_fresh_rows(problem, kPenalty, start,
                                     Match::kBitForBit, Match::kBitForBit, seed);
    expect_follow_matches_fresh_rows(problem, 0.0, start, Match::kBitForBit,
                                     Match::kBitForBit, seed);
  }
  // A fractional P rounds in the rows, but it enters eta only through the
  // diagonal, so eta stays bit for bit.
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    const PartitionProblem problem = test::make_tiny_problem(
        {.num_components = 80,
         .num_partitions = 6,
         .wire_probability = 0.1,
         .constraint_probability = 0.08,
         .with_linear_term = true,
         .seed = seed});
    Rng rng(seed ^ 0xe7au);
    expect_follow_matches_fresh_rows(
        problem, kPenalty,
        test::random_complete(problem.num_components(),
                              problem.num_partitions(), rng),
        Match::kRelative, Match::kBitForBit, seed);
  }
}

TEST(DeltaEvaluator, FollowMatchesFreshRowsOnAsymmetricFractionalData) {
  // Odd oracle seeds: asymmetric fractional B and D, fractional alpha,
  // beta, bounds and a linear term.
  for (const std::uint64_t seed : {1u, 3u, 5u}) {
    SCOPED_TRACE(seed);
    const test::OracleInstance instance = test::make_oracle_instance(seed);
    ASSERT_GT(instance.problem.timing().matrix().nonzeros(), 0u);
    expect_follow_matches_fresh_rows(instance.problem, kPenalty, instance.start,
                                     Match::kRelative, Match::kRelative, seed);
  }
}

TEST(DeltaEvaluator, EtaAfterAPolishRebuildsNoRow) {
  // Burkard's STEP 3 reads eta off the rows its polish keeps current, both
  // when the polish built them (eta then only adds the incoming parts) and
  // when an earlier eta did.
  const PartitionProblem problem = test::make_tiny_problem(
      {.num_components = 60,
       .num_partitions = 6,
       .wire_probability = 0.12,
       .constraint_probability = 0.08,
       .capacity_factor = 2.0,
       .seed = 7});
  const auto n = static_cast<std::uint64_t>(problem.num_components());
  const auto size = static_cast<std::size_t>(problem.flat_size());
  std::vector<double> eta(size);
  std::vector<double> expected(size);
  DeltaEvaluator evaluator(problem, kPenalty);
  Rng rng(41);
  Assignment u = test::random_complete(problem.num_components(),
                                       problem.num_partitions(), rng);
  for (std::uint64_t round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    const Assignment jumped = test::random_jump(u, 0.3, rng);
    u = jumped;
    polish_iterate(problem, evaluator, u, /*max_sweeps=*/3, round);
    EXPECT_NE(u, jumped) << "the polish committed nothing";
    EXPECT_EQ(evaluator.cache_misses(), n);
    evaluator.eta(u, eta);
    EXPECT_EQ(evaluator.cache_misses(), n);
    DeltaEvaluator(problem, kPenalty).eta(u, expected);
    EXPECT_EQ(eta, expected);
  }
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
