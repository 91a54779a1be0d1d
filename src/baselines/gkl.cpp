#include "baselines/gkl.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
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

  const double infinity = std::numeric_limits<double>::infinity();
  // The components in ascending (size, id) order: a step lists each
  // partition's unlocked members in this order, so every row's capacity
  // window (Placement::SwapRow::window) is one contiguous run of its
  // target's list.
  const std::span<const double> sizes = problem.netlist().sizes();
  std::vector<std::int32_t> by_size(static_cast<std::size_t>(n));
  std::iota(by_size.begin(), by_size.end(), 0);
  std::sort(by_size.begin(), by_size.end(), [&](std::int32_t x, std::int32_t y) {
    return std::tie(sizes[static_cast<std::size_t>(x)], x) <
           std::tie(sizes[static_cast<std::size_t>(y)], y);
  });

  std::vector<bool> locked(static_cast<std::size_t>(n), false);
  // gain(j, i) is j's one-sided move gain g_j(i), its move_deltas entry,
  // masked to +inf at j's own partition and wherever a timing partner
  // blocks j alone.  The table outlives a step: a commit changes only the
  // rows of the movers' wire neighbors (their incident rows) and timing
  // partners (their conflict rows), so only those are marked stale and
  // recomputed.  cheapest(t, s) is the least gain(b, s) over the unlocked b
  // at t, stored by b's partition so that each b folds its contiguous gain
  // row into one row.  members lists the unlocked components by partition,
  // starting at first[i].
  Matrix<double> gain(n, m, infinity);
  std::vector<std::uint8_t> stale(static_cast<std::size_t>(n), 1);
  Matrix<double> cheapest(m, m, infinity);
  std::vector<Row> rows;
  std::vector<std::int32_t> members(static_cast<std::size_t>(n));
  std::vector<std::int32_t> first(static_cast<std::size_t>(m) + 1);
  std::vector<std::int32_t> cursor(static_cast<std::size_t>(m));
  std::int64_t partners = 0;   // window members the searches visited
  std::int64_t gain_rows = 0;  // gain rows recomputed

  const auto refresh = [&](std::int32_t j) {
    const std::span<const double> deltas = evaluator.move_deltas(assignment, j);
    const auto row = gain.row(j);
    for (PartitionId i = 0; i < m; ++i) {
      row[static_cast<std::size_t>(i)] =
          placement.conflicts(j, i) == 0 ? deltas[static_cast<std::size_t>(i)]
                                         : infinity;
    }
    row[static_cast<std::size_t>(assignment[j])] = infinity;
    stale[static_cast<std::size_t>(j)] = 0;
    ++gain_rows;
  };
  const auto members_at = [&](PartitionId t) {
    const auto begin = static_cast<std::size_t>(first[static_cast<std::size_t>(t)]);
    const auto end = static_cast<std::size_t>(first[static_cast<std::size_t>(t) + 1]);
    return std::span<const std::int32_t>(members).subspan(begin, end - begin);
  };
  // j moved: its own row and every row that reads its position.
  const auto mark = [&](std::int32_t j) {
    stale[static_cast<std::size_t>(j)] = 1;
    for (const std::int32_t k : adjacency.row_indices(j)) {
      stale[static_cast<std::size_t>(k)] = 1;
    }
    for (const std::int32_t k : problem.timing().partners(j)) {
      stale[static_cast<std::size_t>(k)] = 1;
    }
  };

  // The feasible swap minimizing (delta, lo, hi) over all unlocked pairs in
  // different partitions, or lo = -1 when none is feasible.  A swap's delta
  // is g_a(p_b) + g_b(p_a) + 2 beta w_ab (B(p_a, p_b) + B(p_b, p_a)), and
  // the last term is never negative, so gain(a, t) + cheapest(t, s) bounds
  // every swap of a (at s) into t from below.  Rows are visited in
  // ascending order of their best such bound, and a pair is scored only
  // while its bound can still beat the incumbent and the pair fits.
  const auto best_swap = [&]() {
    std::fill(cheapest.flat().begin(), cheapest.flat().end(), infinity);
    std::fill(first.begin(), first.end(), 0);
    for (std::int32_t b = 0; b < n; ++b) {
      if (locked[static_cast<std::size_t>(b)]) continue;
      if (stale[static_cast<std::size_t>(b)] != 0) refresh(b);
      const PartitionId t = assignment[b];
      ++first[static_cast<std::size_t>(t) + 1];
      const auto gains = gain.row(b);
      const auto least = cheapest.row(t);
      for (std::size_t i = 0; i < least.size(); ++i) {
        least[i] = std::min(least[i], gains[i]);
      }
    }
    for (PartitionId i = 0; i < m; ++i) {
      first[static_cast<std::size_t>(i) + 1] += first[static_cast<std::size_t>(i)];
    }
    std::copy(first.begin(), first.end() - 1, cursor.begin());
    for (const std::int32_t b : by_size) {
      if (locked[static_cast<std::size_t>(b)]) continue;
      members[static_cast<std::size_t>(cursor[static_cast<std::size_t>(assignment[b])]++)] = b;
    }
    rows.clear();
    for (std::int32_t a = 0; a < n; ++a) {
      if (locked[static_cast<std::size_t>(a)]) continue;
      const PartitionId s = assignment[a];
      double bound = infinity;
      for (PartitionId t = 0; t < m; ++t) {
        bound = std::min(bound, gain(a, t) + cheapest(t, s));
      }
      if (bound < infinity) rows.push_back({bound, a});
    }
    std::sort(rows.begin(), rows.end());

    // Every masked sum is +inf, which the finite limit refuses even before
    // an incumbent exists.
    Candidate best;
    double limit = std::numeric_limits<double>::max();
    for (const Row& row : rows) {
      if (row.bound > limit) break;
      const std::int32_t a = row.a;
      const PartitionId s = assignment[a];
      const Placement::SwapRow fit = placement.swap_row(a);
      for (PartitionId t = 0; t < m; ++t) {
        const double move_a = gain(a, t);
        if (move_a + cheapest(t, s) > limit) continue;
        const std::span<const std::int32_t> window = fit.window(members_at(t));
        partners += static_cast<std::int64_t>(window.size());
        for (const std::int32_t b : window) {
          if (move_a + gain(b, s) > limit) continue;
          const std::int32_t lo = std::min(a, b);
          const std::int32_t hi = std::max(a, b);
          const Candidate candidate{
              evaluator.cached_swap_delta(assignment, lo, hi), lo, hi};
          ++result.pairs_scored;
          if (candidate.beats(best) && placement.swap_keeps_timing(lo, hi)) {
            best = candidate;
            limit = best.delta + margin;
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
      mark(best.lo);
      mark(best.hi);
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
    // The loop's movers stayed locked, and the rollback moved them back:
    // every row is recomputed before the next loop reads it.
    std::fill(stale.begin(), stale.end(), 1);
    result.swaps_kept += static_cast<std::int64_t>(best_prefix_length);
    result.outer_loops = outer + 1;
    if (best_prefix_gain <= options.min_improvement) break;
  }

  static const prof::PhaseId kPairsScored =
      prof::register_phase("gkl.pairs_scored");
  static const prof::PhaseId kPartners = prof::register_phase("gkl.partners");
  static const prof::PhaseId kGainRows = prof::register_phase("gkl.gain_rows");
  prof::record_events(kPairsScored, result.pairs_scored);
  prof::record_events(kPartners, partners);
  prof::record_events(kGainRows, gain_rows);
  result.objective = problem.objective(result.assignment);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace qbp
