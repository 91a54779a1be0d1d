// DeltaEvaluator: the unified incremental evaluation layer.  Every delta it
// reports -- exact or cached -- must equal the brute difference of the full
// evaluation (penalized_value / objective), and the rows that commits patch,
// and the STEP 3 eta read off them, must stay exact across arbitrary commit
// sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_support/circuits.hpp"
#include "bench_support/experiment.hpp"
#include "core/burkard.hpp"
#include "core/delta_evaluator.hpp"
#include "core/initial.hpp"
#include "core/placement.hpp"
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

/// A 12-component instance on an integer custom topology whose B is
/// asymmetric with a nonzero diagonal (and D asymmetric): every row entry
/// and delta is an integer, and B + B^T differs from 2B.
PartitionProblem make_skewed_problem(std::uint64_t seed) {
  Rng rng(seed);
  const std::int32_t n = 12;
  const std::int32_t m = 4;
  Netlist netlist("skewed");
  for (std::int32_t j = 0; j < n; ++j) {
    netlist.add_component("c" + std::to_string(j),
                          static_cast<double>(rng.next_int(1, 3)));
  }
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = a + 1; b < n; ++b) {
      if (rng.next_bool(0.4)) {
        netlist.add_wires(a, b, static_cast<std::int32_t>(rng.next_int(1, 4)));
      }
    }
  }
  Matrix<double> wire_cost(m, m, 0.0);
  Matrix<double> delay(m, m, 0.0);
  for (PartitionId i = 0; i < m; ++i) {
    for (PartitionId k = 0; k < m; ++k) {
      wire_cost(i, k) = static_cast<double>(rng.next_int(i == k ? 1 : 0, 9));
      if (i != k) delay(i, k) = static_cast<double>(rng.next_int(1, 4));
    }
  }
  PartitionTopology topology = PartitionTopology::custom(
      std::move(wire_cost), std::move(delay),
      std::vector<double>(static_cast<std::size_t>(m),
                          netlist.total_size() / m * 1.6));
  TimingConstraints timing(n);
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = a + 1; b < n; ++b) {
      if (rng.next_bool(0.35)) {
        timing.add(a, b, static_cast<double>(rng.next_int(1, 3)));
      }
    }
  }
  return PartitionProblem(std::move(netlist), std::move(topology),
                          std::move(timing));
}

TEST(DeltaEvaluator, PairOverloadEqualsLookup) {
  // Every wired or constrained pair, in both modes: the swap delta from the
  // wire count and bound its caller passes equals, bit for bit, the one
  // that looks them up.  On the skewed integer instances both also equal
  // the one-off delta and every row matches move_delta, which checks the
  // B + B^T table where B != B^T, after commits patched the rows.
  std::int64_t pairs = 0;
  std::int64_t wired_and_constrained = 0;
  const auto expect_same_deltas = [&](const PartitionProblem& problem,
                                      double penalty, Assignment assignment,
                                      bool exact) {
    const auto& adjacency = problem.netlist().connection_matrix();
    const auto& timing = problem.timing();
    const std::int32_t n = problem.num_components();
    const std::int32_t m = problem.num_partitions();
    DeltaEvaluator evaluator(problem, penalty);
    Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
    for (std::int32_t j = 0; j < n; ++j) (void)evaluator.move_deltas(assignment, j);
    for (std::int32_t step = 0; step < 3 * n; ++step) {
      evaluator.commit_move(
          assignment,
          static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(n))),
          static_cast<PartitionId>(rng.next_below(static_cast<std::uint64_t>(m))));
    }
    const auto visit = [&](std::int32_t a, std::int32_t b) {
      const std::int32_t wires = adjacency.value_or(a, b, 0);
      const double bound = timing.max_delay(a, b);
      const double walked =
          evaluator.cached_swap_delta(assignment, a, b, wires, bound);
      ASSERT_EQ(walked, evaluator.cached_swap_delta(assignment, a, b))
          << "pair (" << a << ", " << b << "), penalty " << penalty;
      if (exact) {
        ASSERT_EQ(walked, evaluator.swap_delta(assignment, a, b));
      }
      ++pairs;
      if (wires != 0 && bound != TimingConstraints::kUnconstrained) {
        ++wired_and_constrained;
      }
    };
    for (std::int32_t a = 0; a < n; ++a) {
      for (const std::int32_t b : adjacency.row_indices(a)) visit(a, b);
      for (const std::int32_t b : timing.partners(a)) visit(a, b);
      if (!exact) continue;
      const auto deltas = evaluator.move_deltas(assignment, a);
      for (PartitionId i = 0; i < m; ++i) {
        ASSERT_EQ(deltas[static_cast<std::size_t>(i)],
                  evaluator.move_delta(assignment, a, i))
            << "row " << a << " column " << i << ", penalty " << penalty;
      }
    }
  };
  for (const double penalty : {0.0, kPenalty}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(seed);
      const PartitionProblem problem = make_skewed_problem(seed);
      ASSERT_FALSE(problem.topology().wire_cost().is_symmetric());
      ASSERT_NE(problem.topology().wire_cost(0, 0), 0.0);
      Rng rng(seed);
      expect_same_deltas(problem, penalty,
                         test::random_complete(problem.num_components(),
                                               problem.num_partitions(), rng),
                         /*exact=*/true);
    }
    // Odd oracle seeds: asymmetric fractional B, D, bounds and weights.
    for (std::uint64_t seed = 1; seed <= 40; seed += 2) {
      SCOPED_TRACE(seed);
      const test::OracleInstance instance = test::make_oracle_instance(seed);
      expect_same_deltas(instance.problem, penalty, instance.start,
                         /*exact=*/false);
    }
  }
  EXPECT_GT(pairs, 1000);
  EXPECT_GT(wired_and_constrained, 0);
}

// ------------------------------------------------------------- polish ----

/// What the lookup polish's two pair loops did.
struct SwapCounts {
  std::int64_t wired = 0;        // swaps the connected-pair loop committed
  std::int64_t constrained = 0;  // swaps the constrained-pair loop committed
  std::int64_t both = 0;  // connected pairs that are also constrained
};

/// polish_iterate as it was while every swap looked up its pair's wire
/// count and bound (the three-argument cached_swap_delta): the same move
/// sweep, pairs, order and random sample.
void lookup_polish(const PartitionProblem& problem, DeltaEvaluator& evaluator,
                   Assignment& u, std::int32_t max_sweeps,
                   std::uint64_t sweep_seed, SwapCounts& counts) {
  if (max_sweeps <= 0) return;
  evaluator.follow(u);
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  Placement placement(problem, u);
  placement.attach(evaluator);
  constexpr double kEps = 1e-9;
  Rng rng(sweep_seed);

  const auto try_swap = [&](std::int32_t a, std::int32_t b) {
    if (a == b || u[a] == u[b] || !placement.swap_fits(a, b)) return false;
    if (evaluator.cached_swap_delta(u, a, b) >= -kEps) return false;
    placement.swap(a, b);
    return true;
  };

  const auto& adjacency = problem.netlist().connection_matrix();
  for (std::int32_t sweep = 0; sweep < max_sweeps; ++sweep) {
    bool improved = false;
    for (std::int32_t j = 0; j < n; ++j) {
      const std::span<const double> deltas = evaluator.move_deltas(u, j);
      PartitionId best_target = -1;
      double best_delta = -kEps;
      for (PartitionId i = 0; i < m; ++i) {
        if (i == u[j] || !placement.fits(j, i)) continue;
        const double delta = deltas[static_cast<std::size_t>(i)];
        if (delta < best_delta) {
          best_delta = delta;
          best_target = i;
        }
      }
      if (best_target >= 0) {
        placement.move(j, best_target);
        improved = true;
      }
    }
    for (std::int32_t a = 0; a < n; ++a) {
      for (const std::int32_t b : adjacency.row_indices(a)) {
        if (b <= a) continue;
        if (problem.timing().max_delay(a, b) !=
            TimingConstraints::kUnconstrained) {
          ++counts.both;
        }
        if (try_swap(a, b)) {
          improved = true;
          ++counts.wired;
        }
      }
      for (const std::int32_t b : problem.timing().partners(a)) {
        if (b > a && try_swap(a, b)) {
          improved = true;
          ++counts.constrained;
        }
      }
    }
    for (std::int32_t k = 0; k < n; ++k) {
      const auto a = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      const auto b = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      if (try_swap(a, b)) improved = true;
    }
    if (!improved) break;
  }
}

TEST(PolishOracle, WalkedPairsMakeTheLookupPolishsMoves) {
  // polish_iterate's pair loops pass each swap the wire count and bound
  // they read off the rows they walk.  Round after round -- a polish, then
  // a 20% jump -- it must commit the lookup polish's moves: the same
  // assignment, the same rows and the same eta, bit for bit.
  SwapCounts counts;
  std::uint64_t walked_hits = 0;
  std::uint64_t looked_up_hits = 0;
  const auto expect_same_polishes = [&](const PartitionProblem& problem,
                                        const Assignment& start,
                                        std::uint64_t seed) {
    const std::int32_t n = problem.num_components();
    const auto size = static_cast<std::size_t>(problem.flat_size());
    DeltaEvaluator walked(problem, kPenalty);
    DeltaEvaluator looked_up(problem, kPenalty);
    std::vector<double> walked_eta(size);
    std::vector<double> looked_up_eta(size);
    Assignment u = start;
    Assignment expected = start;
    Rng rng(seed);
    for (std::uint64_t round = 0; round < 3; ++round) {
      polish_iterate(problem, walked, u, /*max_sweeps=*/4, seed ^ round);
      lookup_polish(problem, looked_up, expected, 4, seed ^ round, counts);
      ASSERT_EQ(u, expected) << "round " << round;
      for (std::int32_t j = 0; j < n; ++j) {
        const auto have = walked.move_deltas(u, j);
        const std::vector<double> copy(have.begin(), have.end());
        const auto want = looked_up.move_deltas(u, j);
        ASSERT_TRUE(std::equal(copy.begin(), copy.end(), want.begin()))
            << "round " << round << " row " << j;
      }
      walked.eta(u, walked_eta);
      looked_up.eta(u, looked_up_eta);
      ASSERT_EQ(walked_eta, looked_up_eta) << "round " << round;
      u = test::random_jump(u, 0.2, rng);
      expected = u;
    }
    walked_hits += walked.cache_hits();
    looked_up_hits += looked_up.cache_hits();
  };
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE(seed);
    const test::OracleInstance instance = test::make_oracle_instance(seed);
    expect_same_polishes(instance.problem, instance.start, seed);
  }
  for (const char* name : {"ckta", "cktg"}) {
    SCOPED_TRACE(name);
    const CircuitInstance circuit = make_circuit(*find_preset(name));
    const InitialResult start =
        make_initial(circuit.problem, InitialStrategy::kQbpZeroWireCost,
                     ExperimentConfig{}.seed);
    ASSERT_TRUE(start.feasible);
    expect_same_polishes(circuit.problem, start.assignment, 7);
  }
  // Not vacuous: both pair loops committed swaps, and some pairs were both
  // wired and constrained, so the walked bound of a wired pair was read.
  EXPECT_GT(counts.wired, 0);
  EXPECT_GT(counts.constrained, 0);
  EXPECT_GT(counts.both, 0);
  // The constrained loop skipped wired partners the wired loop had just
  // scored, so the walked polish read fewer cached rows.
  EXPECT_LT(walked_hits, looked_up_hits);
}

}  // namespace
}  // namespace qbp
