// The placement oracle: seeded sequences of capacity-keeping moves and
// swaps through a Placement with rows and conflicts attached, checked after
// every step against fresh builds of every part it keeps and against the
// per-proposal scans its reads replace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
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

}  // namespace
}  // namespace qbp
