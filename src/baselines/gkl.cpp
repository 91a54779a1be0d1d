#include "baselines/gkl.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "core/delta_evaluator.hpp"
#include "core/placement.hpp"
#include "util/prof.hpp"
#include "util/timer.hpp"

#include "util/check.hpp"

namespace qbp {

namespace {

struct Swap {
  std::int32_t a;
  std::int32_t b;
};

/// A scored swap of lo < hi.  The best one has the lowest delta, and ties go
/// to the lexicographically first (lo, hi) -- the pair a scan over every
/// a < b keeps when it replaces its best only on a strictly lower delta.
struct Candidate {
  double delta = std::numeric_limits<double>::infinity();
  std::int32_t lo = -1;
  std::int32_t hi = -1;

  [[nodiscard]] bool beats(const Candidate& other) const {
    if (other.lo < 0) return true;
    if (delta != other.delta) return delta < other.delta;
    return std::tie(lo, hi) < std::tie(other.lo, other.hi);
  }
};

/// An unlocked component and the lowest bound over its swaps.
struct Row {
  double bound;
  std::int32_t a;

  [[nodiscard]] bool operator<(const Row& other) const {
    return std::tie(bound, a) < std::tie(other.bound, other.a);
  }
};

/// The bound and the swap delta sum the same row entries in different
/// orders, so they may disagree by a few ulps of the largest entry.  A pair
/// is skipped only when its bound clears the incumbent by this fraction of
/// a bound on every row entry: orders of magnitude above the rounding, and
/// small enough that near-ties cost only a few extra scored pairs.
constexpr double kRoundingMargin = 1e-9;

}  // namespace

GklResult solve_gkl(const PartitionProblem& problem, const Assignment& initial,
                    const GklOptions& options) {
  QBP_CHECK(initial.is_complete());
  QBP_CHECK(problem.is_feasible(initial))
      << "GKL requires a feasible starting solution (Section 5)";

  const Timer timer;
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  const auto& p = problem.linear_cost_matrix();
  const auto& adjacency = problem.netlist().connection_matrix();
  const auto& topology = problem.topology();

  // The lower bound on a swap's delta below assumes these;
  // PartitionProblem::validate enforces them for file and wire input, but
  // the constructor does not.
  QBP_CHECK_GE(problem.beta(), 0.0) << "GKL needs beta >= 0";
  double max_b = 0.0;
  for (PartitionId i = 0; i < m; ++i) {
    QBP_CHECK_EQ(topology.wire_cost(i, i), 0.0)
        << "GKL needs a zero B diagonal (partition " << i << ")";
    QBP_CHECK_EQ(topology.delay(i, i), 0.0)
        << "GKL needs a zero D diagonal (partition " << i << ")";
    for (PartitionId k = 0; k < m; ++k) {
      QBP_CHECK_GE(topology.wire_cost(i, k), 0.0)
          << "GKL needs B >= 0 (B(" << i << ", " << k << "))";
      max_b = std::max(max_b, topology.wire_cost(i, k));
    }
  }
  // |row entry| <= beta * 2 max B * (j's wire count) + alpha * max |P|.
  double max_wires = 0.0;
  for (std::int32_t j = 0; j < n; ++j) {
    double wires = 0.0;
    for (const auto w : adjacency.row_values(j)) wires += w;
    max_wires = std::max(max_wires, wires);
  }
  double p_scale = 0.0;
  for (const double entry : p.flat()) p_scale = std::max(p_scale, std::abs(entry));
  const double margin =
      kRoundingMargin * (problem.beta() * 2.0 * max_b * max_wires +
                         std::abs(problem.alpha()) * p_scale);

  GklResult result;
  result.assignment = initial;
  Assignment& assignment = result.assignment;
  // Objective-mode rows: a component's gains are its move_deltas, a swap's
  // delta comes off two rows plus the pair term, and the placement commits
  // every swap and rollback through the evaluator, which patches the rows
  // of the moved components' neighbors.
  DeltaEvaluator evaluator(problem);
  Placement placement(problem, assignment);
  placement.attach(evaluator);
  placement.attach_conflicts();

  std::vector<bool> locked(static_cast<std::size_t>(n), false);
  // Per-step scratch of the best-pair search.  gain(j, i) is j's one-sided
  // move gain g_j(i), its move_deltas entry; cheapest(s, t) is the lowest
  // gain g_b(s) over the unlocked b in t that may move to s alone; members
  // lists the unlocked components by partition, starting at first[i].
  Matrix<double> gain(n, m, 0.0);
  Matrix<double> cheapest(m, m, 0.0);
  std::vector<Row> rows;
  std::vector<std::int32_t> members(static_cast<std::size_t>(n));
  std::vector<std::int32_t> first(static_cast<std::size_t>(m) + 1);
  std::vector<std::int32_t> cursor(static_cast<std::size_t>(m));

  // The feasible swap minimizing (delta, lo, hi) over all unlocked pairs in
  // different partitions, or lo = -1 when none is feasible.  A swap's delta
  // is g_a(p_b) + g_b(p_a) + 2 beta w_ab (B(p_a, p_b) + B(p_b, p_a)), and
  // the last term is never negative, so g_a(t) + cheapest(s, t) bounds
  // every swap of a (at s) into t from below.  Components are visited in
  // ascending order of their best such bound, and a pair is scored only
  // while its bound can still beat the incumbent.
  const auto best_swap = [&]() {
    const double infinity = std::numeric_limits<double>::infinity();
    std::fill(cheapest.flat().begin(), cheapest.flat().end(), infinity);
    std::fill(first.begin(), first.end(), 0);
    for (std::int32_t a = 0; a < n; ++a) {
      if (locked[static_cast<std::size_t>(a)]) continue;
      const PartitionId s = assignment[a];
      ++first[static_cast<std::size_t>(s) + 1];
      const std::span<const double> deltas = evaluator.move_deltas(assignment, a);
      const auto gain_row = gain.row(a);
      for (PartitionId t = 0; t < m; ++t) {
        const double g = deltas[static_cast<std::size_t>(t)];
        gain_row[static_cast<std::size_t>(t)] = g;
        if (t != s && placement.conflicts(a, t) == 0) {
          cheapest(t, s) = std::min(cheapest(t, s), g);
        }
      }
    }
    for (PartitionId i = 0; i < m; ++i) {
      first[static_cast<std::size_t>(i) + 1] += first[static_cast<std::size_t>(i)];
    }
    std::copy(first.begin(), first.end() - 1, cursor.begin());
    rows.clear();
    for (std::int32_t a = 0; a < n; ++a) {
      if (locked[static_cast<std::size_t>(a)]) continue;
      const PartitionId s = assignment[a];
      members[static_cast<std::size_t>(cursor[static_cast<std::size_t>(s)]++)] = a;
      double bound = infinity;
      for (PartitionId t = 0; t < m; ++t) {
        if (t == s || placement.conflicts(a, t) != 0) continue;
        bound = std::min(bound, gain(a, t) + cheapest(s, t));
      }
      if (bound < infinity) rows.push_back({bound, a});
    }
    std::sort(rows.begin(), rows.end());

    Candidate best;
    for (const Row& row : rows) {
      if (row.bound > best.delta + margin) break;
      const std::int32_t a = row.a;
      const PartitionId s = assignment[a];
      for (PartitionId t = 0; t < m; ++t) {
        if (t == s || placement.conflicts(a, t) != 0) continue;
        const double move_a = gain(a, t);
        if (move_a + cheapest(s, t) > best.delta + margin) continue;
        for (std::int32_t k = first[static_cast<std::size_t>(t)];
             k < first[static_cast<std::size_t>(t) + 1]; ++k) {
          const std::int32_t b = members[static_cast<std::size_t>(k)];
          if (placement.conflicts(b, s) != 0 ||
              move_a + gain(b, s) > best.delta + margin) {
            continue;
          }
          const std::int32_t lo = std::min(a, b);
          const std::int32_t hi = std::max(a, b);
          const Candidate candidate{
              evaluator.cached_swap_delta(assignment, lo, hi), lo, hi};
          if (candidate.beats(best) && placement.swap_fits(lo, hi) &&
              placement.swap_keeps_timing(lo, hi)) {
            best = candidate;
          }
        }
      }
    }
    return best;
  };

  for (std::int32_t outer = 0; outer < options.max_outer_loops; ++outer) {
    if (options.stop.stop_requested()) break;
    QBP_PROF_SCOPE("gkl.outer_loop");
    std::fill(locked.begin(), locked.end(), false);
    std::vector<Swap> applied;
    double cumulative = 0.0;
    double best_prefix_gain = 0.0;
    std::size_t best_prefix_length = 0;

    for (;;) {
      const Candidate best = best_swap();
      if (best.lo < 0) break;

      placement.swap(best.lo, best.hi);
      locked[static_cast<std::size_t>(best.lo)] = true;
      locked[static_cast<std::size_t>(best.hi)] = true;
      applied.push_back({best.lo, best.hi});
      ++result.swaps_applied;
      cumulative += -best.delta;
      if (cumulative > best_prefix_gain) {
        best_prefix_gain = cumulative;
        best_prefix_length = applied.size();
      }
    }

    // Roll back to the best prefix (swaps are involutions).
    for (std::size_t k = applied.size(); k-- > best_prefix_length;) {
      placement.swap(applied[k].a, applied[k].b);
    }
    result.swaps_kept += static_cast<std::int64_t>(best_prefix_length);
    result.outer_loops = outer + 1;
    if (best_prefix_gain <= options.min_improvement) break;
  }

  result.objective = problem.objective(result.assignment);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace qbp
