#include "baselines/gkl.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

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

/// The bound and swap_delta sum the same stored entries in different
/// orders, so they may disagree by a few ulps of the largest entry.  A pair
/// is skipped only when its bound clears the incumbent by this fraction of
/// that scale: orders of magnitude above the rounding, and small enough
/// that near-ties cost only a few extra scored pairs.
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
  const auto& sizes = problem.netlist().sizes();
  const auto& p = problem.linear_cost_matrix();
  const auto& adjacency = problem.netlist().connection_matrix();
  const auto& topology = problem.topology();
  const auto& timing = problem.timing();
  const double alpha = problem.alpha();
  const double beta = problem.beta();

  // The swap delta below and the bound on it assume these;
  // PartitionProblem::validate enforces them for file and wire input, but
  // the constructor does not.
  QBP_CHECK_GE(beta, 0.0) << "GKL needs beta >= 0";
  for (PartitionId i = 0; i < m; ++i) {
    QBP_CHECK_EQ(topology.wire_cost(i, i), 0.0)
        << "GKL needs a zero B diagonal (partition " << i << ")";
    QBP_CHECK_EQ(topology.delay(i, i), 0.0)
        << "GKL needs a zero D diagonal (partition " << i << ")";
    for (PartitionId k = 0; k < m; ++k) {
      QBP_CHECK_GE(topology.wire_cost(i, k), 0.0)
          << "GKL needs B >= 0 (B(" << i << ", " << k << "))";
    }
  }
  double p_scale = 0.0;
  for (const double entry : p.flat()) p_scale = std::max(p_scale, std::abs(entry));

  GklResult result;
  result.assignment = initial;
  Assignment& assignment = result.assignment;
  CapacityLedger ledger(assignment, sizes, problem.topology().capacities());

  // inc(j, i): quadratic cost of j's incident wires (both ordered
  // directions) if j sat in partition i, all neighbors at their current
  // partitions.
  Matrix<double> inc(n, m, 0.0);
  const auto rebuild_inc_row = [&](std::int32_t j) {
    auto row = inc.row(j);
    for (std::int32_t i = 0; i < m; ++i) row[static_cast<std::size_t>(i)] = 0.0;
    const auto neighbors = adjacency.row_indices(j);
    const auto wires = adjacency.row_values(j);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const PartitionId other = assignment[neighbors[k]];
      for (std::int32_t i = 0; i < m; ++i) {
        row[static_cast<std::size_t>(i)] +=
            wires[k] * (topology.wire_cost(i, other) + topology.wire_cost(other, i));
      }
    }
  };
  for (std::int32_t j = 0; j < n; ++j) rebuild_inc_row(j);

  // blocked(j, i): how many of j's timing partners forbid j from sitting in
  // partition i, all partners at their current partitions.  j may move to i
  // alone iff this is 0 (TimingConstraints::component_feasible_at).
  Matrix<std::int32_t> blocked(n, m, 0);
  const auto forbids = [&](PartitionId target, PartitionId partner_at,
                           double bound) {
    return TimingConstraints::breaks(topology, target, partner_at, bound) ? 1 : 0;
  };
  for (std::int32_t j = 0; j < n; ++j) {
    const auto partners = timing.partners(j);
    const auto bounds = timing.bounds(j);
    auto row = blocked.row(j);
    for (std::size_t k = 0; k < partners.size(); ++k) {
      const PartitionId at = assignment[partners[k]];
      for (std::int32_t i = 0; i < m; ++i) {
        row[static_cast<std::size_t>(i)] += forbids(i, at, bounds[k]);
      }
    }
  }

  // Exact objective change of swapping j1 (at p1) with j2 (at p2); O(1)
  // given inc (see header: the shared-edge terms cancel except for the
  // +2E correction).
  const auto swap_delta = [&](std::int32_t j1, std::int32_t j2) {
    const PartitionId p1 = assignment[j1];
    const PartitionId p2 = assignment[j2];
    const double w = adjacency.value_or(j1, j2, 0);
    const double edge =
        w * (topology.wire_cost(p1, p2) + topology.wire_cost(p2, p1));
    double delta = beta * (inc(j1, p2) + inc(j2, p1) - inc(j1, p1) -
                           inc(j2, p2) + 2.0 * edge);
    if (!p.empty()) {
      delta += alpha * (p(p2, j1) - p(p1, j1) + p(p1, j2) - p(p2, j2));
    }
    return delta;
  };

  const auto swap_feasible = [&](std::int32_t j1, std::int32_t j2) {
    const PartitionId p1 = assignment[j1];
    const PartitionId p2 = assignment[j2];
    const double s1 = sizes[static_cast<std::size_t>(j1)];
    const double s2 = sizes[static_cast<std::size_t>(j2)];
    if (ledger.usage(p1) - s1 + s2 > ledger.capacity(p1) + CapacityLedger::kTolerance)
      return false;
    if (ledger.usage(p2) - s2 + s1 > ledger.capacity(p2) + CapacityLedger::kTolerance)
      return false;
    return timing.component_feasible_at(assignment, topology, j1, p2, j2, p1) &&
           timing.component_feasible_at(assignment, topology, j2, p1, j1, p2);
  };

  const auto apply_swap = [&](std::int32_t j1, std::int32_t j2) {
    const PartitionId p1 = assignment[j1];
    const PartitionId p2 = assignment[j2];
    const double s1 = sizes[static_cast<std::size_t>(j1)];
    const double s2 = sizes[static_cast<std::size_t>(j2)];
    ledger.remove(p1, s1);
    ledger.add(p2, s1);
    ledger.remove(p2, s2);
    ledger.add(p1, s2);
    assignment.set(j1, p2);
    assignment.set(j2, p1);
    // Every neighbor of a moved endpoint sees its inc row shift by the
    // endpoint's relocation; this also fixes inc(j1, .) and inc(j2, .)
    // because each is (usually) a neighbor of the other -- rebuild their
    // rows outright to cover the non-adjacent case too.  The blocked row of
    // every timing partner of a moved endpoint shifts the same way.
    for (const std::int32_t moved : {j1, j2}) {
      const PartitionId from = moved == j1 ? p1 : p2;
      const PartitionId to = moved == j1 ? p2 : p1;
      const auto neighbors = adjacency.row_indices(moved);
      const auto wires = adjacency.row_values(moved);
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const std::int32_t other = neighbors[k];
        if (other == j1 || other == j2) continue;  // rebuilt below
        auto row = inc.row(other);
        for (std::int32_t i = 0; i < m; ++i) {
          row[static_cast<std::size_t>(i)] +=
              wires[k] *
              (topology.wire_cost(i, to) + topology.wire_cost(to, i) -
               topology.wire_cost(i, from) - topology.wire_cost(from, i));
        }
      }
      const auto partners = timing.partners(moved);
      const auto bounds = timing.bounds(moved);
      for (std::size_t k = 0; k < partners.size(); ++k) {
        auto row = blocked.row(partners[k]);
        for (std::int32_t i = 0; i < m; ++i) {
          row[static_cast<std::size_t>(i)] +=
              forbids(i, to, bounds[k]) - forbids(i, from, bounds[k]);
        }
      }
    }
    rebuild_inc_row(j1);
    rebuild_inc_row(j2);
  };

  std::vector<bool> locked(static_cast<std::size_t>(n), false);
  // Per-step scratch of the best-pair search.  gain(j, i) is j's one-sided
  // move gain g_j(i) = beta (inc(j, i) - inc(j, p_j)) + alpha (P(i, j) -
  // P(p_j, j)); cheapest(s, t) is the lowest gain g_b(s) over the unlocked
  // b in t that may move to s alone; members lists the unlocked components
  // by partition, starting at first[i].
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
    double inc_scale = 0.0;
    for (std::int32_t a = 0; a < n; ++a) {
      if (locked[static_cast<std::size_t>(a)]) continue;
      const PartitionId s = assignment[a];
      ++first[static_cast<std::size_t>(s) + 1];
      const auto inc_row = inc.row(a);
      const auto gain_row = gain.row(a);
      const double stay = inc_row[static_cast<std::size_t>(s)];
      for (PartitionId t = 0; t < m; ++t) {
        const double cost = inc_row[static_cast<std::size_t>(t)];
        double g = beta * (cost - stay);
        if (!p.empty()) g += alpha * (p(t, a) - p(s, a));
        gain_row[static_cast<std::size_t>(t)] = g;
        inc_scale = std::max(inc_scale, std::abs(cost));
        if (t != s && blocked(a, t) == 0) {
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
        if (t == s || blocked(a, t) != 0) continue;
        bound = std::min(bound, gain(a, t) + cheapest(s, t));
      }
      if (bound < infinity) rows.push_back({bound, a});
    }
    std::sort(rows.begin(), rows.end());

    const double margin = kRoundingMargin * (beta * inc_scale + alpha * p_scale);
    Candidate best;
    for (const Row& row : rows) {
      if (row.bound > best.delta + margin) break;
      const std::int32_t a = row.a;
      const PartitionId s = assignment[a];
      for (PartitionId t = 0; t < m; ++t) {
        if (t == s || blocked(a, t) != 0) continue;
        const double move_a = gain(a, t);
        if (move_a + cheapest(s, t) > best.delta + margin) continue;
        for (std::int32_t k = first[static_cast<std::size_t>(t)];
             k < first[static_cast<std::size_t>(t) + 1]; ++k) {
          const std::int32_t b = members[static_cast<std::size_t>(k)];
          if (blocked(b, s) != 0 || move_a + gain(b, s) > best.delta + margin) {
            continue;
          }
          const std::int32_t lo = std::min(a, b);
          const std::int32_t hi = std::max(a, b);
          const Candidate candidate{swap_delta(lo, hi), lo, hi};
          if (candidate.beats(best) && swap_feasible(lo, hi)) best = candidate;
        }
      }
    }
    return best;
  };

  for (std::int32_t outer = 0; outer < options.max_outer_loops; ++outer) {
    if (options.should_stop && options.should_stop()) break;
    std::fill(locked.begin(), locked.end(), false);
    std::vector<Swap> applied;
    double cumulative = 0.0;
    double best_prefix_gain = 0.0;
    std::size_t best_prefix_length = 0;

    for (;;) {
      const Candidate best = best_swap();
      if (best.lo < 0) break;

      apply_swap(best.lo, best.hi);
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
      apply_swap(applied[k].a, applied[k].b);
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
