#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "assign/gap.hpp"
#include "oracle/lap.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

// ----------------------------------------------------------------- lap ----

double brute_force_lap(const Matrix<double>& cost) {
  const std::int32_t n = cost.rows();
  std::vector<std::int32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  do {
    double total = 0.0;
    for (std::int32_t r = 0; r < n; ++r) total += cost(r, perm[r]);
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(Lap, SolvesHandExample) {
  const auto cost = Matrix<double>::from_rows({{4, 1, 3}, {2, 0, 5}, {3, 2, 2}});
  const auto result = solve_lap(cost);
  EXPECT_DOUBLE_EQ(result.cost, 5.0);  // 1 + 2 + 2
  EXPECT_EQ(result.col_of_row[0], 1);
  EXPECT_EQ(result.col_of_row[1], 0);
  EXPECT_EQ(result.col_of_row[2], 2);
}

TEST(Lap, AssignmentIsInjective) {
  Rng rng(5);
  Matrix<double> cost(6, 6, 0.0);
  for (std::int32_t r = 0; r < 6; ++r) {
    for (std::int32_t c = 0; c < 6; ++c) cost(r, c) = rng.next_double(0, 10);
  }
  const auto result = solve_lap(cost);
  std::vector<bool> used(6, false);
  for (const auto col : result.col_of_row) {
    ASSERT_GE(col, 0);
    EXPECT_FALSE(used[col]);
    used[col] = true;
  }
}

class LapRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LapRandomSweep, MatchesBruteForceOnRandomSquare) {
  Rng rng(GetParam());
  const std::int32_t n = 2 + static_cast<std::int32_t>(rng.next_below(5));
  Matrix<double> cost(n, n, 0.0);
  for (std::int32_t r = 0; r < n; ++r) {
    for (std::int32_t c = 0; c < n; ++c) {
      cost(r, c) = static_cast<double>(rng.next_int(0, 20));
    }
  }
  EXPECT_NEAR(solve_lap(cost).cost, brute_force_lap(cost), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LapRandomSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Lap, RectangularRowsLeqCols) {
  const auto cost = Matrix<double>::from_rows({{9, 1, 9, 9}, {9, 9, 9, 2}});
  const auto result = solve_lap(cost);
  EXPECT_DOUBLE_EQ(result.cost, 3.0);
  EXPECT_EQ(result.row_of_col[1], 0);
  EXPECT_EQ(result.row_of_col[3], 1);
  EXPECT_EQ(result.row_of_col[0], -1);
}

TEST(Lap, NegativeCostsHandled) {
  const auto cost = Matrix<double>::from_rows({{-5, 0}, {0, -3}});
  EXPECT_DOUBLE_EQ(solve_lap(cost).cost, -8.0);
}

// ----------------------------------------------------------------- gap ----

using test::brute_force_gap;
using test::GapInstance;
using test::random_gap;

TEST(Gap, FeasibleOnEasyInstance) {
  const GapInstance instance = random_gap(4, 20, 1.8, 1);
  const GapProblem problem = instance.problem();
  const auto result = solve_gap(problem);
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(gap_feasible(problem, result.agent_of_item));
  EXPECT_DOUBLE_EQ(result.cost, gap_cost(problem, result.agent_of_item));
}

TEST(Gap, EveryItemAssigned) {
  const GapInstance instance = random_gap(3, 15, 2.0, 2);
  const GapProblem problem = instance.problem();
  const auto result = solve_gap(problem);
  ASSERT_EQ(result.agent_of_item.size(), 15u);
  for (const auto agent : result.agent_of_item) {
    EXPECT_GE(agent, 0);
    EXPECT_LT(agent, 3);
  }
}

class GapQualitySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GapQualitySweep, WithinFactorOfBruteForceOptimum) {
  const GapInstance instance = random_gap(3, 7, 1.7, GetParam());
  const GapProblem problem = instance.problem();
  bool exists = false;
  const double optimum = brute_force_gap(problem, exists);
  ASSERT_TRUE(exists);
  GapOptions options;
  options.swap_improvement = true;
  const auto result = solve_gap(problem, options);
  ASSERT_TRUE(result.feasible);
  // A decent MTHG implementation should be within 30% on tiny instances
  // (usually exact); this guards against gross regressions.
  EXPECT_LE(result.cost, optimum * 1.3 + 5.0);
  EXPECT_GE(result.cost, optimum - 1e-9);
}

TEST_P(GapQualitySweep, FeasibleWheneverBruteForceIsTight) {
  // slack 1.25: tight but feasible instances.
  const GapInstance instance = random_gap(3, 7, 1.25, GetParam() ^ 0x99);
  const GapProblem problem = instance.problem();
  bool exists = false;
  (void)brute_force_gap(problem, exists);
  ASSERT_TRUE(exists) << "every seed of this sweep is feasible";
  GapOptions options;
  options.swap_improvement = true;
  const auto result = solve_gap(problem, options);
  EXPECT_TRUE(result.feasible);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GapQualitySweep,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(Gap, RepairsOverflowWhenConstructionFails) {
  // One big item per agent fits only in a specific arrangement; greedy
  // construction by cost alone would overflow.
  const GapInstance instance{
      Matrix<double>::from_rows({{0.0, 0.0}, {10.0, 10.0}}), {1.0, 1.0},
      {1.0, 1.0}, {}};
  const auto result = solve_gap(instance.problem());
  EXPECT_TRUE(result.feasible);
  // One item must take the expensive agent.
  EXPECT_DOUBLE_EQ(result.cost, 10.0);
}

TEST(Gap, InfeasibleInstanceReported) {
  const GapInstance instance{Matrix<double>(2, 3, 1.0), {1.0, 1.0, 1.0},
                             {0.5, 0.5}, {}};  // nothing fits anywhere
  const auto result = solve_gap(instance.problem());
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.agent_of_item.size(), 3u);  // still complete (C3)
}

TEST(Gap, DeterministicAcrossRuns) {
  const GapInstance instance = random_gap(4, 30, 1.5, 77);
  const GapProblem problem = instance.problem();
  const auto a = solve_gap(problem);
  const auto b = solve_gap(problem);
  EXPECT_EQ(a.agent_of_item, b.agent_of_item);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST(Gap, ImprovementPassesNeverWorsen) {
  const GapInstance instance = random_gap(4, 25, 1.6, 31);
  const GapProblem problem = instance.problem();
  GapOptions no_improve;
  no_improve.improvement_passes = 0;
  GapOptions improve;
  improve.improvement_passes = 4;
  improve.swap_improvement = true;
  const auto base = solve_gap(problem, no_improve);
  const auto better = solve_gap(problem, improve);
  if (base.feasible && better.feasible) {
    EXPECT_LE(better.cost, base.cost + 1e-9);
  }
}

TEST(Gap, HonorsZeroCapacityAgent) {
  const GapInstance instance{
      Matrix<double>::from_rows({{0.0, 0.0}, {5.0, 5.0}}), {1.0, 1.0},
      {0.0, 2.0}, {}};  // agent 0 is closed despite cheap costs
  const auto result = solve_gap(instance.problem());
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.agent_of_item[0], 1);
  EXPECT_EQ(result.agent_of_item[1], 1);
}

/// Integer GAP instance: costs 0-30, sizes 1-3, every capacity
/// ceil(sum of sizes / M), so every slack and every delta is exact.
GapInstance integer_gap(std::int32_t m, std::int32_t n, std::uint64_t seed) {
  Rng rng(seed);
  GapInstance gap{Matrix<double>(m, n, 0.0), {}, {}, {}};
  for (std::int32_t i = 0; i < m; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      gap.cost(i, j) = static_cast<double>(rng.next_int(0, 30));
    }
  }
  double total = 0.0;
  for (std::int32_t j = 0; j < n; ++j) {
    gap.sizes.push_back(static_cast<double>(rng.next_int(1, 3)));
    total += gap.sizes.back();
  }
  gap.capacities.assign(m, std::ceil(total / m));
  return gap;
}

struct WalkCounts {
  std::int32_t swaps = 0;
  std::int32_t rejected = 0;  // profitable pairs the capacities refused
};

/// One improvement pass of solve_gap, written as the plain walk: a
/// best-improvement move pass, then a first-improvement swap scan that
/// tests one pair at a time.
WalkCounts plain_improvement_pass(const GapProblem& problem,
                                  std::vector<std::int32_t>& agent) {
  constexpr double kEps = 1e-12;
  constexpr double kTolerance = 1e-9;
  const std::int32_t m = problem.num_agents();
  const auto n = static_cast<std::int32_t>(agent.size());
  std::vector<double> slack = problem.capacities;
  for (std::int32_t j = 0; j < n; ++j) slack[agent[j]] -= problem.sizes[j];

  for (std::int32_t j = 0; j < n; ++j) {
    const std::int32_t from = agent[j];
    std::int32_t best_to = -1;
    double best_delta = -kEps;
    for (std::int32_t i = 0; i < m; ++i) {
      if (i == from || slack[i] + kTolerance < problem.sizes[j]) continue;
      const double delta = problem.cost_at(i, j) - problem.cost_at(from, j);
      if (delta < best_delta) {
        best_delta = delta;
        best_to = i;
      }
    }
    if (best_to < 0) continue;
    slack[from] += problem.sizes[j];
    slack[best_to] -= problem.sizes[j];
    agent[j] = best_to;
  }

  WalkCounts counts;
  for (std::int32_t j1 = 0; j1 < n; ++j1) {
    for (std::int32_t j2 = j1 + 1; j2 < n; ++j2) {
      const std::int32_t a1 = agent[j1];
      const std::int32_t a2 = agent[j2];
      if (a1 == a2) continue;
      const double delta = problem.cost_at(a2, j1) + problem.cost_at(a1, j2) -
                           problem.cost_at(a1, j1) - problem.cost_at(a2, j2);
      if (!(delta < -kEps)) continue;
      const double s1 = problem.sizes[j1];
      const double s2 = problem.sizes[j2];
      if (slack[a1] + s1 + kTolerance < s2 ||
          slack[a2] + s2 + kTolerance < s1) {
        ++counts.rejected;
        continue;
      }
      slack[a1] += s1 - s2;
      slack[a2] += s2 - s1;
      agent[j1] = a2;
      agent[j2] = a1;
      ++counts.swaps;
    }
  }
  return counts;
}

TEST(Gap, SwapPassMatchesPlainWalk) {
  // The swap scan tests its pairs in blocks and resumes one past each
  // candidate; whatever the blocking, it must commit exactly the swaps of
  // the one-pair-at-a-time walk.
  WalkCounts total;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const GapInstance instance = integer_gap(4, 60, seed);
    const GapProblem problem = instance.problem();
    GapOptions constructed;
    constructed.improvement_passes = 0;
    GapOptions one_pass;
    one_pass.improvement_passes = 1;
    one_pass.swap_improvement = true;
    std::vector<std::int32_t> expected =
        solve_gap(problem, constructed).agent_of_item;
    const WalkCounts counts = plain_improvement_pass(problem, expected);
    total.swaps += counts.swaps;
    total.rejected += counts.rejected;
    EXPECT_EQ(solve_gap(problem, one_pass).agent_of_item, expected)
        << "seed " << seed;
  }
  // Both branches of the scan ran: commits and capacity rejections.
  EXPECT_GT(total.swaps, 0);
  EXPECT_GT(total.rejected, 0);
}

}  // namespace
}  // namespace qbp
