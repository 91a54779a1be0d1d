// The placement oracle: seeded sequences of capacity-keeping moves and
// swaps through a Placement with rows and conflicts attached, checked after
// every step against fresh builds of every part it keeps and against the
// per-proposal scans its reads replace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/delta_evaluator.hpp"
#include "core/placement.hpp"
#include "test_support.hpp"
#include "timing/conflict_table.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

/// What the sweep saw, so it can show it is not vacuous.
struct Coverage {
  std::int64_t moves = 0;
  std::int64_t swaps = 0;
  std::int64_t refused_fits = 0;
  std::int64_t refused_swap_fits = 0;
  std::int64_t refused_swap_timing = 0;
  /// Pairs whose two rows alone would have answered swap_keeps_timing
  /// wrongly: the a-b pair's own term decided it.
  std::int64_t pair_corrected = 0;
};

/// The placement over `assignment` against fresh builds: usage and the
/// conflict rows through test::placement_drift (1e-9, exact), the attached
/// rows' move_deltas against a fresh evaluator (bit for bit when
/// `integer_data`), and fits / conflicts / swap_fits / swap_keeps_timing
/// against a ledger recount and component_feasible_at.
testing::AssertionResult matches_fresh(const PartitionProblem& problem,
                                       const Placement& placement,
                                       DeltaEvaluator& rows,
                                       const Assignment& assignment,
                                       bool integer_data, Coverage& coverage) {
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  const auto& sizes = problem.netlist().sizes();
  const auto& topology = problem.topology();
  const auto& timing = problem.timing();
  const CapacityLedger ledger(assignment, sizes, topology.capacities());
  const ConflictTable table(timing, topology, assignment);
  DeltaEvaluator fresh_rows(problem, rows.penalty());

  if (const std::string drift = test::placement_drift(placement);
      !drift.empty()) {
    return testing::AssertionFailure() << drift;
  }
  for (std::int32_t j = 0; j < n; ++j) {
    const auto kept = rows.move_deltas(assignment, j);
    const std::vector<double> patched(kept.begin(), kept.end());
    const auto fresh = fresh_rows.move_deltas(assignment, j);
    const double size = sizes[static_cast<std::size_t>(j)];
    for (PartitionId i = 0; i < m; ++i) {
      const auto at = static_cast<std::size_t>(i);
      const double tolerance =
          integer_data ? 0.0 : 1e-9 * std::max(1.0, std::abs(fresh[at]));
      if (std::abs(patched[at] - fresh[at]) > tolerance) {
        return testing::AssertionFailure()
               << "move_deltas(" << j << ")[" << i << "]: " << patched[at]
               << " patched, " << fresh[at] << " fresh";
      }
      if ((placement.conflicts(j, i) == 0) !=
          timing.component_feasible_at(assignment, topology, j, i)) {
        return testing::AssertionFailure()
               << "conflicts(" << j << ", " << i
               << ") disagrees with the scan";
      }
      if (i == assignment[j]) continue;
      if (placement.fits(j, i) != ledger.fits(i, size)) {
        return testing::AssertionFailure() << "fits(" << j << ", " << i << ")";
      }
      if (!placement.fits(j, i)) ++coverage.refused_fits;
    }
  }
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = a + 1; b < n; ++b) {
      const PartitionId pa = assignment[a];
      const PartitionId pb = assignment[b];
      if (pa == pb) continue;
      const double sa = sizes[static_cast<std::size_t>(a)];
      const double sb = sizes[static_cast<std::size_t>(b)];
      const bool fits = ledger.usage(pa) - sa + sb <=
                            ledger.capacity(pa) + CapacityLedger::kTolerance &&
                        ledger.usage(pb) - sb + sa <=
                            ledger.capacity(pb) + CapacityLedger::kTolerance;
      if (placement.swap_fits(a, b) != fits) {
        return testing::AssertionFailure()
               << "swap_fits(" << a << ", " << b << ")";
      }
      const bool keeps =
          timing.component_feasible_at(assignment, topology, a, pb, b, pa) &&
          timing.component_feasible_at(assignment, topology, b, pa, a, pb);
      if (placement.swap_keeps_timing(a, b) != keeps) {
        return testing::AssertionFailure()
               << "swap_keeps_timing(" << a << ", " << b
               << ") disagrees with the scan";
      }
      if (!fits) ++coverage.refused_swap_fits;
      if (!keeps) ++coverage.refused_swap_timing;
      const bool rows_alone = table(a, pb) == 0 && table(b, pa) == 0;
      if (rows_alone != keeps) ++coverage.pair_corrected;
    }
  }
  return testing::AssertionSuccess();
}

TEST(PlacementOracle, EveryReadAndPartMatchesAFreshBuild) {
  constexpr std::int32_t kSteps = 40;
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE(seed);
    const test::OracleInstance instance = test::make_oracle_instance(seed);
    const PartitionProblem& problem = instance.problem;
    const std::int32_t n = problem.num_components();
    const auto m = static_cast<std::uint64_t>(problem.num_partitions());
    // Objective-mode rows (the baselines') on seeds 1, 2 mod 4 and
    // penalized rows (the polish's) on the rest, on both kinds of data.
    const double penalty = seed % 4 == 1 || seed % 4 == 2 ? 0.0 : 50.0;
    const bool integer_data = seed % 2 == 0;

    Assignment assignment = instance.start;
    DeltaEvaluator rows(problem, penalty);
    for (std::int32_t j = 0; j < n; ++j) (void)rows.move_deltas(assignment, j);
    Placement placement(problem, assignment);
    placement.attach(rows);
    placement.attach_conflicts();
    Rng rng(seed ^ 0x91ace);
    const auto component = [&] {
      return static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
    };
    for (std::int32_t step = 0; step < kSteps; ++step) {
      const std::int32_t a = component();
      if (rng.next_bool(0.5)) {
        const auto to = static_cast<PartitionId>(rng.next_below(m));
        if (to != assignment[a] && placement.fits(a, to)) {
          placement.move(a, to);
          ++coverage.moves;
        }
      } else {
        const std::int32_t b = component();
        if (assignment[a] != assignment[b] && placement.swap_fits(a, b)) {
          placement.swap(a, b);
          ++coverage.swaps;
        }
      }
      ASSERT_TRUE(matches_fresh(problem, placement, rows, assignment,
                                integer_data, coverage))
          << "after step " << step;
    }
    ASSERT_TRUE(problem.satisfies_capacity(assignment));
  }
  // The sweep is not vacuous: moves and swaps were made, every read said
  // no somewhere, and the pair correction decided thousands of swaps.
  EXPECT_GT(coverage.moves, 500);
  EXPECT_GT(coverage.swaps, 1000);
  EXPECT_GT(coverage.refused_fits, 1000);
  EXPECT_GT(coverage.refused_swap_fits, 1000);
  EXPECT_GT(coverage.refused_swap_timing, 1000);
  EXPECT_GT(coverage.pair_corrected, 1000);
}

/// The components at `partition` in ascending (size, id) order: the lists
/// GKL cuts with SwapRow::window.
std::vector<std::int32_t> by_size_at(const PartitionProblem& problem,
                                     const Assignment& assignment,
                                     PartitionId partition) {
  const auto& sizes = problem.netlist().sizes();
  std::vector<std::int32_t> list;
  for (std::int32_t j = 0; j < problem.num_components(); ++j) {
    if (assignment[j] == partition) list.push_back(j);
  }
  std::sort(list.begin(), list.end(), [&](std::int32_t x, std::int32_t y) {
    return std::tie(sizes[static_cast<std::size_t>(x)], x) <
           std::tie(sizes[static_cast<std::size_t>(y)], y);
  });
  return list;
}

/// Components of these sizes on a 1 x M grid with these capacities and no
/// timing constraints.
PartitionProblem window_problem(const std::vector<double>& sizes,
                                std::vector<double> capacities) {
  Netlist netlist("window");
  for (std::size_t j = 0; j < sizes.size(); ++j) {
    netlist.add_component("c" + std::to_string(j), sizes[j]);
  }
  PartitionTopology topology =
      PartitionTopology::grid(1, static_cast<std::int32_t>(capacities.size()));
  topology.set_capacities(std::move(capacities));
  return {std::move(netlist), std::move(topology),
          TimingConstraints(static_cast<std::int32_t>(sizes.size()))};
}

// SwapRow::window over random placements: every (size, id)-sorted member
// list of another partition is cut to exactly the partners swap_fits(a, .)
// accepts.  Even seeds draw sizes from three values, so runs of equal sizes
// straddle the window's edges; odd seeds draw fractional sizes.  About a
// quarter of the partitions get a room exactly at their usage.
TEST(PlacementWindow, CutsSizeSortedListsToThePartnersThatFit) {
  constexpr double kRepeated[] = {1.0, 2.0, 3.0};
  std::int64_t windows = 0;
  std::int64_t cut_both = 0;  // windows that lost partners at both ends
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const auto n = static_cast<std::int32_t>(rng.next_int(4, 40));
    const auto m = static_cast<std::int32_t>(rng.next_int(2, 5));
    std::vector<double> sizes(static_cast<std::size_t>(n));
    for (double& size : sizes) {
      size = seed % 2 == 0 ? kRepeated[rng.next_below(3)]
                           : rng.next_double(0.25, 4.0);
    }
    Assignment assignment = test::random_complete(n, m, rng);
    const CapacityLedger count(assignment, sizes,
                               std::vector<double>(static_cast<std::size_t>(m)));
    std::vector<double> capacities(static_cast<std::size_t>(m));
    for (PartitionId i = 0; i < m; ++i) {
      capacities[static_cast<std::size_t>(i)] =
          rng.next_below(4) == 0 ? test::capacity_with_room(count.usage(i))
                                 : count.usage(i) + rng.next_double(0.0, 3.0);
    }
    const PartitionProblem problem = window_problem(sizes, std::move(capacities));
    const Placement placement(problem, assignment);
    for (std::int32_t a = 0; a < n; ++a) {
      const Placement::SwapRow row = placement.swap_row(a);
      for (PartitionId t = 0; t < m; ++t) {
        if (t == assignment[a]) continue;
        const std::vector<std::int32_t> list = by_size_at(problem, assignment, t);
        std::vector<std::int32_t> fitting;
        for (const std::int32_t b : list) {
          if (placement.swap_fits(a, b)) fitting.push_back(b);
        }
        const auto window = row.window(list);
        ASSERT_EQ(std::vector<std::int32_t>(window.begin(), window.end()),
                  fitting)
            << "a = " << a << ", t = " << t;
        ++windows;
        if (!fitting.empty() && fitting.front() != list.front() &&
            fitting.back() != list.back()) {
          ++cut_both;
        }
      }
    }
  }
  // Not vacuous: thousands of windows, and many cut at both ends.
  EXPECT_GT(windows, 1000);
  EXPECT_GT(cut_both, 100);
}

// A trade whose sum lands exactly on a capacity plus kTolerance fits, and
// one ulp less room refuses it, at either end of the window.  a (1.5) sits
// at partition 0 beside 0.75; partition 1 holds 1.0, 1.75, 1.75 and 2.5.
// a's side, 0.75 + s_b <= 2.5, admits s_b <= 1.75; b's side,
// (7.0 - s_b) + 1.5 <= 7.5, admits s_b >= 1.0.  Every sum is exact.
TEST(PlacementWindow, TradesLandingExactlyOnTheRoomFit) {
  const std::vector<double> sizes = {1.5, 0.75, 1.0, 1.75, 1.75, 2.5};
  Assignment assignment(6, 2);
  for (std::int32_t j = 0; j < 6; ++j) assignment.set(j, j < 2 ? 0 : 1);
  const auto window_at = [&](double room0, double room1) {
    const PartitionProblem problem =
        window_problem(sizes, {test::capacity_with_room(room0),
                               test::capacity_with_room(room1)});
    const Placement placement(problem, assignment);
    const std::vector<std::int32_t> list = by_size_at(problem, assignment, 1);
    const auto window = placement.swap_row(0).window(list);
    std::vector<std::int32_t> fitting;
    for (const std::int32_t b : list) {
      if (placement.swap_fits(0, b)) fitting.push_back(b);
    }
    EXPECT_EQ(std::vector<std::int32_t>(window.begin(), window.end()), fitting);
    return fitting;
  };
  const double below = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(window_at(2.5, 7.5), (std::vector<std::int32_t>{2, 3, 4}));
  EXPECT_EQ(window_at(std::nextafter(2.5, below), 7.5),
            (std::vector<std::int32_t>{2}));
  EXPECT_EQ(window_at(2.5, std::nextafter(7.5, below)),
            (std::vector<std::int32_t>{3, 4}));
}

}  // namespace
}  // namespace qbp
