#include <gtest/gtest.h>

#include "core/burkard.hpp"
#include "core/delta_evaluator.hpp"
#include "oracle/embedding.hpp"
#include "oracle/qhat.hpp"
#include "test_support.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

// -------------------------------------------- the Section 3.3 example ----

TEST(QhatPaperExample, ReproducesTheWorkedMatrix) {
  const auto problem = test::make_paper_example();

  // The paper's 12 x 12 matrix with p = 0 (no linear term in the example's
  // numeric entries).  Layout: rows/cols (a,1..4), (b,1..4), (c,1..4).
  const auto expected = Matrix<double>::from_rows({
      {0, 0, 0, 0, /**/ 0, 5, 5, 50, /**/ 0, 0, 0, 0},
      {0, 0, 0, 0, /**/ 5, 0, 50, 5, /**/ 0, 0, 0, 0},
      {0, 0, 0, 0, /**/ 5, 50, 0, 5, /**/ 0, 0, 0, 0},
      {0, 0, 0, 0, /**/ 50, 5, 5, 0, /**/ 0, 0, 0, 0},
      {0, 5, 5, 50, /**/ 0, 0, 0, 0, /**/ 0, 2, 2, 50},
      {5, 0, 50, 5, /**/ 0, 0, 0, 0, /**/ 2, 0, 50, 2},
      {5, 50, 0, 5, /**/ 0, 0, 0, 0, /**/ 2, 50, 0, 2},
      {50, 5, 5, 0, /**/ 0, 0, 0, 0, /**/ 50, 2, 2, 0},
      {0, 0, 0, 0, /**/ 0, 2, 2, 50, /**/ 0, 0, 0, 0},
      {0, 0, 0, 0, /**/ 2, 0, 50, 2, /**/ 0, 0, 0, 0},
      {0, 0, 0, 0, /**/ 2, 50, 0, 2, /**/ 0, 0, 0, 0},
      {0, 0, 0, 0, /**/ 50, 2, 2, 0, /**/ 0, 0, 0, 0},
  });
  EXPECT_EQ(materialize_qhat(problem, 50.0), expected);
}

TEST(QhatPaperExample, DiagonalCarriesLinearCosts) {
  // Same example but with a non-trivial P: the paper's matrix shows
  // p_{1a} .. p_{4c} on the diagonal.
  Matrix<double> p(4, 3, 0.0);
  double value = 1.0;
  for (std::int32_t j = 0; j < 3; ++j) {
    for (PartitionId i = 0; i < 4; ++i) p(i, j) = value++;
  }
  const auto base = test::make_paper_example();
  const PartitionProblem problem(base.netlist(), base.topology(), base.timing(),
                                 p);
  for (std::int32_t j = 0; j < 3; ++j) {
    for (PartitionId i = 0; i < 4; ++i) {
      const auto r = problem.flat_index(i, j);
      EXPECT_DOUBLE_EQ(qhat_entry(problem, 50.0, r, r), p(i, j));
    }
  }
}

TEST(QhatPaperExample, TimingViolationEntryExplained) {
  // Section 3.3: "the entry at row (a,2) and column (b,3) ... D(2,3) = 2
  // which exceeds Dc(a,b) = 1.  Therefore we set it to a high cost 50."
  const auto problem = test::make_paper_example();
  const auto r1 = problem.flat_index(1, 0);  // (a, 2) 0-based partition 1
  const auto r2 = problem.flat_index(2, 1);  // (b, 3)
  EXPECT_DOUBLE_EQ(qhat_entry(problem, 50.0, r1, r2), 50.0);
}

// -------------------------------------------------- generic semantics ----

class QhatSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QhatSweep, PenalizedValueMatchesDenseQuadraticForm) {
  auto spec = test::TinySpec{};
  spec.num_components = 5;
  spec.num_partitions = 3;
  spec.with_linear_term = true;
  spec.seed = GetParam();
  const auto problem = test::make_tiny_problem(spec);
  const auto dense = materialize_qhat(problem, 50.0);

  Rng rng(GetParam() ^ 0x5555);
  for (int trial = 0; trial < 25; ++trial) {
    const auto assignment = test::random_complete(
        problem.num_components(), problem.num_partitions(), rng);
    const auto y = to_y(problem, assignment);
    double direct = 0.0;
    for (std::int32_t r1 = 0; r1 < dense.rows(); ++r1) {
      for (std::int32_t r2 = 0; r2 < dense.cols(); ++r2) {
        direct += y[static_cast<std::size_t>(r1)] *
                  y[static_cast<std::size_t>(r2)] * dense(r1, r2);
      }
    }
    EXPECT_NEAR(problem.penalized_value(assignment, 50.0), direct, 1e-9);
  }
}

TEST_P(QhatSweep, PenalizedEqualsTrueObjectiveOnFeasibleAssignments) {
  // Lemma 1 in action: Q coincides with Qhat over the feasible region, so
  // y^T Qhat y == y^T Q y whenever y has no timing violations.
  const auto problem = test::make_tiny_problem({.seed = GetParam()});
  Rng rng(GetParam() ^ 0x1234);
  int feasible_seen = 0;
  for (int trial = 0; trial < 200 && feasible_seen < 10; ++trial) {
    const auto assignment = test::random_complete(
        problem.num_components(), problem.num_partitions(), rng);
    if (!problem.satisfies_timing(assignment)) continue;
    ++feasible_seen;
    EXPECT_NEAR(problem.penalized_value(assignment, 50.0),
                problem.objective(assignment), 1e-9);
    EXPECT_EQ(ordered_violations(problem, assignment), 0);
  }
  EXPECT_GT(feasible_seen, 0);
}

TEST_P(QhatSweep, PenalizedExceedsObjectiveOnViolatingAssignments) {
  const auto problem = test::make_tiny_problem({.seed = GetParam()});
  Rng rng(GetParam() ^ 0x4321);
  for (int trial = 0; trial < 100; ++trial) {
    const auto assignment = test::random_complete(
        problem.num_components(), problem.num_partitions(), rng);
    const auto violations = ordered_violations(problem, assignment);
    if (violations == 0) continue;
    EXPECT_GT(problem.penalized_value(assignment, 50.0),
              problem.objective(assignment));
  }
}

TEST_P(QhatSweep, EtaMatchesDenseColumnGather) {
  auto spec = test::TinySpec{};
  spec.num_components = 5;
  spec.num_partitions = 3;
  spec.with_linear_term = true;
  spec.seed = GetParam();
  const auto problem = test::make_tiny_problem(spec);
  const auto dense = materialize_qhat(problem, 50.0);

  Rng rng(GetParam() ^ 0xaaaa);
  const auto u = test::random_complete(problem.num_components(),
                                       problem.num_partitions(), rng);
  const auto y = to_y(problem, u);
  std::vector<double> eta(static_cast<std::size_t>(problem.flat_size()));
  DeltaEvaluator(problem, 50.0).eta(u, eta);
  for (std::int64_t s = 0; s < problem.flat_size(); ++s) {
    double expected = 0.0;
    for (std::int64_t r = 0; r < problem.flat_size(); ++r) {
      expected += y[static_cast<std::size_t>(r)] *
                  dense(static_cast<std::int32_t>(r), static_cast<std::int32_t>(s));
    }
    EXPECT_NEAR(eta[static_cast<std::size_t>(s)], expected, 1e-9)
        << "column " << s;
  }
}

/// Drive one evaluator, whose rows eta() builds at `start`, through
/// Burkard-shaped jumps from `start`: random jumps that move 10-40% of the
/// components, and every fourth round a restart-style return to the start
/// plus a 10% kick.  The rows, and the incoming parts STEP 3 reads, are
/// patched, never rebuilt; after every jump eta must equal Q-hat's own
/// column gather, eta_s = sum_r qhat(r, s) y_r from entry(), with the other
/// components summed first and the diagonal added last -- `exact`: bit for
/// bit, otherwise to 1e-9 relative.
void expect_patched_eta_matches_gather(const PartitionProblem& problem,
                                       const Assignment& start, bool exact,
                                       std::uint64_t seed) {
  DeltaEvaluator evaluator(problem, 50.0);
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  std::vector<double> eta(static_cast<std::size_t>(problem.flat_size()));
  Rng rng(seed);
  Assignment u = start;
  evaluator.eta(u, eta);
  std::int64_t moved = 0;
  for (std::int32_t round = 0; round < 24; ++round) {
    const Assignment next =
        round % 4 == 3 ? test::random_jump(start, 0.10, rng)
                       : test::random_jump(u, rng.next_double(0.10, 0.40), rng);
    for (std::int32_t j = 0; j < n; ++j) moved += u[j] != next[j] ? 1 : 0;
    u = next;
    evaluator.eta(u, eta);
    for (std::int32_t j = 0; j < n; ++j) {
      for (PartitionId i = 0; i < m; ++i) {
        const std::int64_t s = i + static_cast<std::int64_t>(j) * m;
        double expected = 0.0;
        for (std::int32_t k = 0; k < n; ++k) {
          if (k == j) continue;
          expected += qhat_entry(problem, 50.0,
                                 u[k] + static_cast<std::int64_t>(k) * m, s);
        }
        if (u[j] == i) expected += qhat_entry(problem, 50.0, s, s);
        const double have = eta[static_cast<std::size_t>(s)];
        ASSERT_TRUE(exact ? have == expected
                          : check::within_relative(have, expected, 1e-9))
            << "round " << round << " entry " << s << ": " << have << " vs "
            << expected;
      }
    }
  }
  EXPECT_GT(moved, 24 * n / 10);
  EXPECT_EQ(evaluator.cache_misses(), static_cast<std::uint64_t>(n));
}

TEST(QhatEta, PatchedSumsBitIdenticalOnIntegerDataWithFractionalP) {
  // Integer wires, Manhattan B and D and integer bounds; P is fractional,
  // and it only ever enters eta through the diagonal.
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
    expect_patched_eta_matches_gather(
        problem,
        test::random_complete(problem.num_components(),
                              problem.num_partitions(), rng),
        /*exact=*/true, seed);
  }
}

TEST(QhatEta, PatchedSumsMatchGatherOnAsymmetricFractionalData) {
  // Odd oracle seeds: asymmetric fractional B and D, fractional alpha,
  // beta, bounds and a linear term.
  for (const std::uint64_t seed : {1u, 3u, 5u}) {
    SCOPED_TRACE(seed);
    const test::OracleInstance instance = test::make_oracle_instance(seed);
    ASSERT_GT(instance.problem.timing().matrix().nonzeros(), 0u);
    expect_patched_eta_matches_gather(instance.problem, instance.start,
                                      /*exact=*/false, seed);
  }
}

TEST_P(QhatSweep, OmegaUpperBoundsRowActivity) {
  // Equation (2): omega_r >= sum_s qhat_{rs} y_s for every y in S.
  const auto problem = test::make_tiny_problem({.seed = GetParam()});
  const auto dense = materialize_qhat(problem, 50.0);
  const auto omega = omega_bounds(problem, 50.0);

  Rng rng(GetParam() ^ 0xbbbb);
  for (int trial = 0; trial < 50; ++trial) {
    const auto assignment = test::random_complete(
        problem.num_components(), problem.num_partitions(), rng);
    const auto y = to_y(problem, assignment);
    for (std::int64_t r = 0; r < problem.flat_size(); ++r) {
      double row_activity = 0.0;
      for (std::int64_t s = 0; s < problem.flat_size(); ++s) {
        row_activity += dense(static_cast<std::int32_t>(r),
                              static_cast<std::int32_t>(s)) *
                        y[static_cast<std::size_t>(s)];
      }
      EXPECT_GE(omega[static_cast<std::size_t>(r)], row_activity - 1e-9);
    }
  }
}

TEST_P(QhatSweep, MoveDeltaPenalizedMatchesRecomputation) {
  auto spec = test::TinySpec{};
  spec.with_linear_term = true;
  spec.seed = GetParam();
  const auto problem = test::make_tiny_problem(spec);
  const DeltaEvaluator evaluator(problem, 50.0);
  Rng rng(GetParam() ^ 0xcccc);
  Assignment assignment = test::random_complete(problem.num_components(),
                                                problem.num_partitions(), rng);
  for (int trial = 0; trial < 40; ++trial) {
    const auto j = static_cast<std::int32_t>(
        rng.next_below(problem.num_components()));
    const auto target = static_cast<PartitionId>(
        rng.next_below(problem.num_partitions()));
    const double before = problem.penalized_value(assignment, 50.0);
    const double delta = evaluator.move_delta(assignment, j, target);
    Assignment moved = assignment;
    moved.set(j, target);
    EXPECT_NEAR(delta, problem.penalized_value(moved, 50.0) - before, 1e-9);
    assignment = moved;
  }
}

TEST_P(QhatSweep, SwapDeltaPenalizedMatchesRecomputation) {
  auto spec = test::TinySpec{};
  spec.with_linear_term = true;
  spec.seed = GetParam();
  const auto problem = test::make_tiny_problem(spec);
  const DeltaEvaluator evaluator(problem, 50.0);
  Rng rng(GetParam() ^ 0xdddd);
  Assignment assignment = test::random_complete(problem.num_components(),
                                                problem.num_partitions(), rng);
  for (int trial = 0; trial < 40; ++trial) {
    const auto a = static_cast<std::int32_t>(
        rng.next_below(problem.num_components()));
    const auto b = static_cast<std::int32_t>(
        rng.next_below(problem.num_components()));
    if (a == b) continue;
    const double before = problem.penalized_value(assignment, 50.0);
    const double delta = evaluator.swap_delta(assignment, a, b);
    Assignment swapped = assignment;
    swapped.set(a, assignment[b]);
    swapped.set(b, assignment[a]);
    EXPECT_NEAR(delta, problem.penalized_value(swapped, 50.0) - before, 1e-9);
    assignment = swapped;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QhatSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 21u, 22u));

// ---------------------------------------------------------- embedding ----

TEST(Embedding, AnalysisComputesAbsSum) {
  const auto problem = test::make_paper_example();
  // sum(A) over ordered pairs = 2*(5+2) = 14; sum(B) = 16 (4x4 Manhattan
  // grid distances: 8 ones + 4 twos = 8 + 8).
  const auto analysis = analyze_embedding(problem, 50.0);
  EXPECT_DOUBLE_EQ(analysis.abs_sum, 14.0 * 16.0);
  EXPECT_DOUBLE_EQ(analysis.theorem1_threshold, 2.0 * 14.0 * 16.0);
  EXPECT_FALSE(analysis.provably_exact);  // 50 < 448
}

TEST(Embedding, Theorem1PenaltyExceedsThreshold) {
  const auto problem = test::make_paper_example();
  const double u = theorem1_penalty(problem);
  EXPECT_GT(u, analyze_embedding(problem, 0.0).theorem1_threshold);
  EXPECT_TRUE(analyze_embedding(problem, u).provably_exact);
}

TEST(Embedding, NominalNonzerosFarBelowDense) {
  const auto problem = test::make_tiny_problem({});
  const double dense_entries = static_cast<double>(problem.flat_size()) *
                               static_cast<double>(problem.flat_size());
  EXPECT_LE(static_cast<double>(nominal_nonzeros(problem)), dense_entries);
}

}  // namespace
}  // namespace qbp
