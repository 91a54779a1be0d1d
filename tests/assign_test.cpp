#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <queue>
#include <set>

#include "assign/gap.hpp"
#include "oracle/lap.hpp"
#include "test_support.hpp"
#include "util/prof.hpp"
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

/// A profitable pair the capacities refused: (j1, j2, agent of j1, agent
/// of j2).
using RefusedPairs = std::set<std::array<std::int32_t, 4>>;

struct WalkCounts {
  std::int32_t moves = 0;  // reassignments of the move pass
  std::int32_t swaps = 0;
  /// Swaps of pairs the previous pass refused at the same two agents.
  std::int32_t refused_then_swapped = 0;
  RefusedPairs refused;  // profitable pairs the capacities refused
};

/// What the swap scan above the crossover must count, taken beside the
/// plain walk: it checks the bound of the superblock (512 items) at the
/// row's first partner and at each superblock start, and inside a
/// superblock it does not skip, the bound of each block (64 items) from
/// there on; it tests the pairs of each block it does not skip.  Every
/// bound here is built fresh from the current agents.
struct BlockWalk {
  double skip_above = 0.0;  // -kEps plus the rounding margin
  std::int64_t pairs = 0;
  std::int64_t bounds = 0;
  /// Improving pairs in groups the bound skipped: the bound is unsound.
  std::int64_t unsound = 0;
};

/// The threshold solve_gap's bound must clear: -kEps plus max |cost| 2^-47.
double block_skip_threshold(const GapProblem& problem) {
  double largest = 0.0;
  for (const double c : problem.cost) largest = std::max(largest, std::abs(c));
  return -1e-12 + largest * 0x1p-47;
}

/// One improvement pass of solve_gap, written as the plain walk: a
/// best-improvement move pass, then a first-improvement swap scan that
/// tests one pair at a time.  `refused_before` is the previous pass's
/// `refused`.  With `blocks`, also count what the bounded scan must.
WalkCounts plain_improvement_pass(const GapProblem& problem,
                                  std::vector<std::int32_t>& agent,
                                  const RefusedPairs& refused_before = {},
                                  BlockWalk* blocks = nullptr) {
  constexpr double kEps = 1e-12;
  constexpr double kTolerance = 1e-9;
  const std::int32_t m = problem.num_agents();
  const auto n = static_cast<std::int32_t>(agent.size());
  std::vector<double> slack = problem.capacities;
  for (std::int32_t j = 0; j < n; ++j) slack[agent[j]] -= problem.sizes[j];

  WalkCounts counts;
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
    ++counts.moves;
  }

  const auto improving = [&](std::int32_t j1, std::int32_t j2) {
    const std::int32_t a1 = agent[j1];
    const std::int32_t a2 = agent[j2];
    return a1 != a2 &&
           problem.cost_at(a2, j1) + problem.cost_at(a1, j2) -
                   problem.cost_at(a1, j1) - problem.cost_at(a2, j2) <
               -kEps;
  };
  const auto test_pair = [&](std::int32_t j1, std::int32_t j2) {
    if (!improving(j1, j2)) return;
    const std::int32_t a1 = agent[j1];
    const std::int32_t a2 = agent[j2];
    const double s1 = problem.sizes[j1];
    const double s2 = problem.sizes[j2];
    if (slack[a1] + s1 + kTolerance < s2 ||
        slack[a2] + s2 + kTolerance < s1) {
      counts.refused.insert({j1, j2, a1, a2});
      return;
    }
    if (refused_before.contains({j1, j2, a1, a2})) {
      ++counts.refused_then_swapped;
    }
    slack[a1] += s1 - s2;
    slack[a2] += s2 - s1;
    agent[j1] = a2;
    agent[j2] = a1;
    ++counts.swaps;
  };
  // Row j1's bound over the items [first, first + size) clamped to n:
  // min over a2 != a1 of (c(j1, a2) - c(j1, a1)) + the least c(k, a1) -
  // c(k, a2) over the group's items k at a2.
  const auto fresh_bound = [&](std::int32_t j1, std::int32_t first,
                               std::int32_t size) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const std::int32_t a1 = agent[j1];
    std::vector<double> least(static_cast<std::size_t>(m), kInf);
    for (std::int32_t k = first; k < std::min(n, first + size); ++k) {
      double& slot = least[static_cast<std::size_t>(agent[k])];
      slot = std::min(slot, problem.cost_at(a1, k) -
                                problem.cost_at(agent[k], k));
    }
    double bound = kInf;
    for (std::int32_t a2 = 0; a2 < m; ++a2) {
      if (a2 == a1) continue;
      bound = std::min(bound, (problem.cost_at(a2, j1) -
                               problem.cost_at(a1, j1)) +
                                  least[static_cast<std::size_t>(a2)]);
    }
    return bound;
  };
  // The pairs of a skipped group still go through the plain test, so the
  // walk stays the plain walk whatever the bound says; an improving one
  // marks the skip unsound.
  const auto skip = [&](std::int32_t j1, std::int32_t from, std::int32_t end) {
    for (std::int32_t j2 = from; j2 < end; ++j2) {
      if (improving(j1, j2)) ++blocks->unsound;
      test_pair(j1, j2);
    }
  };
  for (std::int32_t j1 = 0; j1 < n; ++j1) {
    if (blocks == nullptr) {
      for (std::int32_t j2 = j1 + 1; j2 < n; ++j2) test_pair(j1, j2);
      continue;
    }
    constexpr std::int32_t kBlock = 64;
    constexpr std::int32_t kSuper = 8 * kBlock;
    std::int32_t j2 = j1 + 1;
    while (j2 < n) {
      const std::int32_t super_end = std::min(n, (j2 / kSuper + 1) * kSuper);
      ++blocks->bounds;
      if (fresh_bound(j1, j2 / kSuper * kSuper, kSuper) > blocks->skip_above) {
        skip(j1, j2, super_end);
        j2 = super_end;
        continue;
      }
      for (; j2 < super_end;) {
        const std::int32_t block_end = std::min(n, (j2 / kBlock + 1) * kBlock);
        ++blocks->bounds;
        if (fresh_bound(j1, j2 / kBlock * kBlock, kBlock) > blocks->skip_above) {
          skip(j1, j2, block_end);
        } else {
          blocks->pairs += block_end - j2;
          for (std::int32_t j = j2; j < block_end; ++j) test_pair(j1, j);
        }
        j2 = block_end;
      }
    }
  }
  return counts;
}

TEST(Gap, SwapPassMatchesPlainWalk) {
  // The swap scan tests its pairs in blocks and resumes one past each
  // candidate; whatever the blocking, it must commit exactly the swaps of
  // the one-pair-at-a-time walk.
  std::int32_t swaps = 0;
  std::size_t refused = 0;
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
    swaps += counts.swaps;
    refused += counts.refused.size();
    EXPECT_EQ(solve_gap(problem, one_pass).agent_of_item, expected)
        << "seed " << seed;
  }
  // Both branches of the scan ran: commits and capacity rejections.
  EXPECT_GT(swaps, 0);
  EXPECT_GT(refused, 0u);
}

/// The pairs solve_gap's swap passes tested so far (the profiler's
/// gap.swap_pairs count).
std::int64_t swap_pairs_tested() {
  const prof::PhaseReport report = prof::snapshot();
  const prof::PhaseStat* stat = report.find("gap.swap_pairs");
  return stat == nullptr ? 0 : stat->count;
}

TEST(Gap, SwapMemoMatchesPlainPasses) {
  // From the second swap pass on, a row whose item has not moved since its
  // last scan tests only the partners that moved since, plus the pairs
  // that scan found improving but could not fit.  Pass after pass it must
  // commit the plain walk's swaps: plain_improvement_pass repeated until a
  // pass changes nothing, on integer costs (where ties are common) and
  // fractional ones, 2 to 64 agents, tight and loose capacities.
  prof::set_enabled(true);
  prof::reset();
  std::int64_t later_pairs = 0;       // pairs the memo's later passes tested
  std::int64_t later_full_pairs = 0;  // pairs full scans would have tested
  std::int32_t refused_then_swapped = 0;
  const auto expect_same_passes = [&](const GapInstance& instance,
                                      int passes) {
    const GapProblem problem = instance.problem();
    const std::int64_t n = problem.num_items();
    GapOptions constructed;
    constructed.improvement_passes = 0;
    std::vector<std::int32_t> expected =
        solve_gap(problem, constructed).agent_of_item;
    RefusedPairs refused;
    std::int64_t passes_run = 0;
    while (passes_run < passes) {
      WalkCounts counts = plain_improvement_pass(problem, expected, refused);
      ++passes_run;
      refused_then_swapped += counts.refused_then_swapped;
      refused = std::move(counts.refused);
      if (counts.moves + counts.swaps == 0) break;
    }

    GapOptions options;
    options.improvement_passes = passes;
    options.swap_improvement = true;
    const std::int64_t before = swap_pairs_tested();
    const GapResult actual = solve_gap(problem, options);
    const std::int64_t pairs = swap_pairs_tested() - before;
    EXPECT_EQ(actual.agent_of_item, expected);
    EXPECT_EQ(actual.cost, gap_cost(problem, expected));
    EXPECT_EQ(actual.feasible, gap_feasible(problem, expected));
    // The first swap pass scans every pair; later ones at most that.
    const std::int64_t pass_pairs = n * (n - 1) / 2;
    EXPECT_GE(pairs, pass_pairs);
    EXPECT_LE(pairs, passes_run * pass_pairs);
    later_pairs += pairs - pass_pairs;
    later_full_pairs += (passes_run - 1) * pass_pairs;
  };
  constexpr std::int32_t kAgents[] = {2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};
  for (std::uint64_t seed = 1; seed <= 132; ++seed) {
    SCOPED_TRACE(seed);
    const std::int32_t m = kAgents[seed % std::size(kAgents)];
    const auto n = static_cast<std::int32_t>(60 + seed % 4 * 30);
    const int passes = 2 + static_cast<int>(seed % 5);
    const bool loose = seed % 2 == 0;
    GapInstance integer = integer_gap(m, n, seed);
    if (loose) {
      for (double& capacity : integer.capacities) capacity *= 1.3;
    }
    expect_same_passes(integer, passes);
    GapInstance fractional = random_gap(m, n, loose ? 1.3 : 1.02, seed);
    Rng rng(seed);
    for (std::int32_t i = 0; i < fractional.cost.rows(); ++i) {
      for (std::int32_t j = 0; j < fractional.cost.cols(); ++j) {
        fractional.cost(i, j) += rng.next_double(0.0, 1.0);
      }
    }
    expect_same_passes(fractional, passes);
  }
  prof::set_enabled(false);
  prof::reset();
  // Not vacuous: later passes left pairs out, and some pair the capacities
  // refused in one pass was swapped in the next at the same agents.
  EXPECT_LT(later_pairs, later_full_pairs);
  EXPECT_GT(refused_then_swapped, 0);
}

/// The block and superblock bounds solve_gap's swap passes checked so far
/// (the profiler's gap.swap_bounds count).
std::int64_t swap_bounds_checked() {
  const prof::PhaseReport report = prof::snapshot();
  const prof::PhaseStat* stat = report.find("gap.swap_bounds");
  return stat == nullptr ? 0 : stat->count;
}

/// Costs R_j + S_a + T(a, j) with R_j in [1e6, 1e9] and S_a in [0, 64) on
/// the 2^-23 grid and T integer in [0, 30]: every cost is exact and so is
/// every bound (a swap's real change is an integer), but x + y in the swap
/// test rounds above 2^30, so pairs whose real change is 0 can test
/// improving by one rounding.  A bound that skips a group at 0 without
/// the rounding margin misses them.
GapInstance large_cost_gap(std::int32_t m, std::int32_t n, std::uint64_t seed) {
  Rng rng(seed);
  GapInstance gap = integer_gap(m, n, seed);
  constexpr double kGrid = 0x1p-23;
  std::vector<double> offset(static_cast<std::size_t>(m));
  for (double& s : offset) {
    s = kGrid * static_cast<double>(rng.next_below(std::uint64_t{64} << 23));
  }
  for (std::int32_t j = 0; j < n; ++j) {
    const double r =
        1e6 + kGrid * static_cast<double>(rng.next_below(
                          static_cast<std::uint64_t>((1e9 - 1e6) / kGrid)));
    for (std::int32_t i = 0; i < m; ++i) {
      gap.cost(i, j) += r + offset[static_cast<std::size_t>(i)];
    }
  }
  return gap;
}

TEST(Gap, BlockBoundMatchesPlainPasses) {
  // Above the crossover the swap passes skip every superblock and block
  // whose bound clears -kEps by the rounding margin.  Pass after pass they
  // must commit the plain walk's swaps, and check exactly the bounds and
  // test exactly the pairs that bounds built fresh from the current
  // agents call for: a kept table that went stale after a move would
  // skip less.  2 to 16 agents; integer, fractional and large costs;
  // tight and loose capacities.  At 32 agents, above the table's agent
  // limit, the memo's passes must give the same answers and check no
  // bound.
  prof::set_enabled(true);
  prof::reset();
  std::int64_t pairs_tested = 0;
  std::int64_t full_pairs = 0;  // pairs full scans would have tested
  std::int64_t bounds_checked = 0;
  std::int32_t swaps = 0;
  constexpr std::int32_t kMaxBoundAgents = 16;
  const auto expect_same_passes = [&](const GapInstance& instance,
                                      int passes) {
    const GapProblem problem = instance.problem();
    const std::int64_t n = problem.num_items();
    const bool bounded = problem.num_agents() <= kMaxBoundAgents;
    GapOptions constructed;
    constructed.improvement_passes = 0;
    std::vector<std::int32_t> expected =
        solve_gap(problem, constructed).agent_of_item;
    BlockWalk blocks;
    blocks.skip_above = block_skip_threshold(problem);
    std::int64_t passes_run = 0;
    while (passes_run < passes) {
      const WalkCounts counts =
          plain_improvement_pass(problem, expected, {}, &blocks);
      ++passes_run;
      swaps += counts.swaps;
      if (counts.moves + counts.swaps == 0) break;
    }
    EXPECT_EQ(blocks.unsound, 0);

    GapOptions options;
    options.improvement_passes = passes;
    options.swap_improvement = true;
    const std::int64_t pairs_before = swap_pairs_tested();
    const std::int64_t bounds_before = swap_bounds_checked();
    const GapResult actual = solve_gap(problem, options);
    EXPECT_EQ(actual.agent_of_item, expected);
    EXPECT_EQ(actual.cost, gap_cost(problem, expected));
    EXPECT_EQ(actual.feasible, gap_feasible(problem, expected));
    if (!bounded) {
      EXPECT_EQ(swap_bounds_checked() - bounds_before, 0);
      return;
    }
    EXPECT_EQ(swap_pairs_tested() - pairs_before, blocks.pairs);
    EXPECT_EQ(swap_bounds_checked() - bounds_before, blocks.bounds);
    pairs_tested += blocks.pairs;
    full_pairs += passes_run * n * (n - 1) / 2;
    bounds_checked += blocks.bounds;
  };
  constexpr std::int32_t kAgents[] = {2, 4, 16, 32};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    const std::int32_t m = kAgents[seed % std::size(kAgents)];
    const auto n = static_cast<std::int32_t>(1280 + seed % 3 * 161);
    const int passes = 2 + static_cast<int>(seed % 3);
    const bool loose = seed % 2 == 0;
    GapInstance integer = integer_gap(m, n, seed);
    GapInstance large = large_cost_gap(m, n, seed);
    if (loose) {
      for (double& capacity : integer.capacities) capacity *= 1.3;
      for (double& capacity : large.capacities) capacity *= 1.3;
    }
    expect_same_passes(integer, passes);
    expect_same_passes(large, passes);
    GapInstance fractional = random_gap(m, n, loose ? 1.3 : 1.02, seed);
    Rng rng(seed);
    for (std::int32_t i = 0; i < fractional.cost.rows(); ++i) {
      for (std::int32_t j = 0; j < fractional.cost.cols(); ++j) {
        fractional.cost(i, j) += rng.next_double(0.0, 1.0);
      }
    }
    expect_same_passes(fractional, passes);
  }
  prof::set_enabled(false);
  prof::reset();
  // Not vacuous: the walks swapped, and the bounds left pairs out.
  EXPECT_GT(swaps, 0);
  EXPECT_GT(bounds_checked, 0);
  EXPECT_LT(pairs_tested, full_pairs);
}

/// solve_gap at improvement_passes = 0 as it was while every pop of the
/// construction rescanned its item's agents: max-regret construction with
/// a full rescan per pop, hopeless items to the agent with the most slack,
/// then the capacity repair.
GapResult rescan_construction(const GapProblem& problem) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kEps = 1e-12;
  constexpr double kTolerance = 1e-9;
  const std::int32_t m = problem.num_agents();
  const std::int32_t n = problem.num_items();
  GapResult result;
  result.agent_of_item.assign(static_cast<std::size_t>(n), -1);
  std::vector<double> slack = problem.capacities;

  struct Scan {
    std::int32_t agent = -1;
    double regret = -kInf;
  };
  const auto scan = [&](std::int32_t j) {
    std::int32_t best_agent = -1;
    double best = kInf;
    double second = kInf;
    for (std::int32_t i = 0; i < m; ++i) {
      if (slack[i] + kTolerance < problem.sizes[j]) continue;
      const double c = problem.cost_at(i, j);
      if (c < best) {
        second = best;
        best = c;
        best_agent = i;
      } else if (c < second) {
        second = c;
      }
    }
    if (best_agent < 0) return Scan{};
    return Scan{best_agent, second == kInf ? 1e18 : second - best};
  };
  struct Entry {
    double regret;
    std::int32_t item;
    bool operator<(const Entry& other) const {
      if (regret != other.regret) return regret < other.regret;
      return item > other.item;
    }
  };
  std::priority_queue<Entry> heap;
  std::vector<std::int32_t> hopeless;
  for (std::int32_t j = 0; j < n; ++j) {
    const Scan best = scan(j);
    if (best.agent < 0) {
      hopeless.push_back(j);
    } else {
      heap.push({best.regret, j});
    }
  }
  const auto assign = [&](std::int32_t j, std::int32_t agent) {
    result.agent_of_item[j] = agent;
    slack[agent] -= problem.sizes[j];
  };
  while (!heap.empty()) {
    const Entry entry = heap.top();
    heap.pop();
    const std::int32_t j = entry.item;
    if (result.agent_of_item[j] >= 0) continue;
    const Scan best = scan(j);
    if (best.agent < 0) {
      hopeless.push_back(j);
      continue;
    }
    if (!heap.empty() && best.regret + kEps < heap.top().regret) {
      heap.push({best.regret, j});
      continue;
    }
    assign(j, best.agent);
  }
  result.construction_failures = static_cast<std::int32_t>(hopeless.size());
  for (const std::int32_t j : hopeless) {
    std::int32_t chosen = 0;
    for (std::int32_t i = 1; i < m; ++i) {
      if (slack[i] > slack[chosen] + kEps ||
          (std::abs(slack[i] - slack[chosen]) <= kEps &&
           problem.cost_at(i, j) < problem.cost_at(chosen, j))) {
        chosen = i;
      }
    }
    assign(j, chosen);
  }

  for (std::int64_t budget = 8 * static_cast<std::int64_t>(n);
       result.repair_moves < budget; ++result.repair_moves) {
    std::int32_t worst = -1;
    double worst_overflow = kTolerance;
    for (std::int32_t i = 0; i < m; ++i) {
      if (-slack[i] > worst_overflow) {
        worst_overflow = -slack[i];
        worst = i;
      }
    }
    if (worst < 0) break;
    std::int32_t move_item = -1;
    std::int32_t move_target = -1;
    double move_score = kInf;
    std::int32_t fallback_item = -1;
    std::int32_t fallback_target = -1;
    double fallback_slack = -kInf;
    for (std::int32_t j = 0; j < n; ++j) {
      if (result.agent_of_item[j] != worst) continue;
      const double size = problem.sizes[j];
      for (std::int32_t i = 0; i < m; ++i) {
        if (i == worst) continue;
        if (slack[i] + kTolerance >= size) {
          const double score =
              (problem.cost_at(i, j) - problem.cost_at(worst, j)) / size;
          if (score < move_score) {
            move_score = score;
            move_item = j;
            move_target = i;
          }
        } else if (slack[i] > fallback_slack) {
          fallback_slack = slack[i];
          fallback_item = j;
          fallback_target = i;
        }
      }
    }
    if (move_item < 0) {
      if (fallback_item < 0) break;
      move_item = fallback_item;
      move_target = fallback_target;
    }
    slack[worst] += problem.sizes[move_item];
    slack[move_target] -= problem.sizes[move_item];
    result.agent_of_item[move_item] = move_target;
  }
  return result;
}

TEST(GapOracle, ConstructionRescansOnlyWhenAnAgentFilled) {
  // A pop rescans its item only once the agent its key's scan found best
  // no longer fits the item.  It must build the assignment the
  // rescan-every-pop construction builds, on integer costs (where ties are
  // common) and fractional ones, with capacities tight enough that some
  // items find no agent.
  GapOptions constructed;
  constructed.improvement_passes = 0;
  std::int32_t failures = 0;
  std::int32_t clean = 0;
  const auto expect_same_construction = [&](const GapInstance& instance) {
    const GapProblem problem = instance.problem();
    const GapResult expected = rescan_construction(problem);
    const GapResult actual = solve_gap(problem, constructed);
    EXPECT_EQ(actual.agent_of_item, expected.agent_of_item);
    EXPECT_EQ(actual.construction_failures, expected.construction_failures);
    EXPECT_EQ(actual.repair_moves, expected.repair_moves);
    failures += expected.construction_failures;
    if (expected.construction_failures == 0) ++clean;
  };
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE(seed);
    GapInstance integer = integer_gap(static_cast<std::int32_t>(2 + seed % 7),
                                      60, seed);
    if (seed % 2 == 0) {
      for (double& capacity : integer.capacities) capacity *= 0.95;
    }
    expect_same_construction(integer);
    GapInstance fractional = random_gap(static_cast<std::int32_t>(2 + seed % 7),
                                        60, 0.9 + 0.05 * (seed % 5), seed);
    Rng rng(seed);
    for (std::int32_t i = 0; i < fractional.cost.rows(); ++i) {
      for (std::int32_t j = 0; j < fractional.cost.cols(); ++j) {
        fractional.cost(i, j) += rng.next_double(0.0, 1.0);
      }
    }
    expect_same_construction(fractional);
  }
  // Not vacuous: some items found no agent, and some instances none.
  EXPECT_GT(failures, 0);
  EXPECT_GT(clean, 0);
}

}  // namespace
}  // namespace qbp
