#include "assign/gap.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "util/check.hpp"
#include "util/prof.hpp"

namespace qbp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-12;
constexpr double kCapTolerance = 1e-9;

/// GapProblem's column-major costs as a raw view: item j's M agent costs
/// are contiguous at [j*M, (j+1)*M).  Every phase of the heuristic scans
/// per-item agent costs, so this is the cache-friendly orientation.
struct ColCost {
  const double* data = nullptr;
  std::int32_t m = 0;

  [[nodiscard]] const double* col(std::int32_t item) const noexcept {
    return data + static_cast<std::size_t>(item) * static_cast<std::size_t>(m);
  }
  [[nodiscard]] double at(std::int32_t agent, std::int32_t item) const noexcept {
    return col(item)[agent];
  }
};

struct BestPair {
  std::int32_t best_agent = -1;
  double best_cost = kInf;
  double second_cost = kInf;

  /// Regret key: how much is lost if the best agent fills up.  Items with a
  /// single feasible agent get top priority.
  [[nodiscard]] double regret() const noexcept {
    if (best_agent < 0) return -kInf;  // nothing feasible; handled separately
    if (second_cost == kInf) return 1e18;
    return second_cost - best_cost;
  }
};

/// Batched Martello-Toth profit evaluation for one item: a single contiguous
/// scan over its M-entry cost column yields best and second-best feasible
/// agents.
BestPair best_agents(const ColCost& cost, std::span<const double> sizes,
                     std::span<const double> slack, std::int32_t item) {
  BestPair best;
  const double* column = cost.col(item);
  const double size = sizes[static_cast<std::size_t>(item)];
  for (std::int32_t i = 0; i < cost.m; ++i) {
    if (slack[static_cast<std::size_t>(i)] + kCapTolerance < size) continue;
    const double c = column[i];
    if (c < best.best_cost ||
        (c == best.best_cost && best.best_agent >= 0 && i < best.best_agent)) {
      best.second_cost = best.best_cost;
      best.best_cost = c;
      best.best_agent = i;
    } else if (c < best.second_cost) {
      best.second_cost = c;
    }
  }
  return best;
}

}  // namespace

double gap_cost(const GapProblem& problem,
                std::span<const std::int32_t> agent_of_item) {
  double total = 0.0;
  for (std::size_t j = 0; j < agent_of_item.size(); ++j) {
    total += problem.cost_at(agent_of_item[j], static_cast<std::int32_t>(j));
  }
  return total;
}

bool gap_feasible(const GapProblem& problem,
                  std::span<const std::int32_t> agent_of_item) {
  std::vector<double> usage(problem.capacities.size(), 0.0);
  for (std::size_t j = 0; j < agent_of_item.size(); ++j) {
    usage[static_cast<std::size_t>(agent_of_item[j])] += problem.sizes[j];
  }
  for (std::size_t i = 0; i < usage.size(); ++i) {
    if (usage[i] > problem.capacities[i] + kCapTolerance) return false;
  }
  return true;
}

GapResult solve_gap(const GapProblem& problem, const GapOptions& options) {
  const std::int32_t m = problem.num_agents();
  const std::int32_t n = problem.num_items();
  QBP_CHECK_EQ(static_cast<std::size_t>(n), problem.sizes.size());
  QBP_CHECK_EQ(static_cast<std::size_t>(m), problem.capacities.size());

  const ColCost cost{problem.cost.data(), m};
  const std::span<const double> sizes(problem.sizes);

  GapResult result;
  result.agent_of_item.assign(static_cast<std::size_t>(n), -1);
  std::vector<double> slack(problem.capacities.begin(), problem.capacities.end());

  // ---- Phase 1: max-regret construction (lazy priority queue). ----
  QBP_PROF_SCOPE("gap.solve");
  {
    QBP_PROF_SCOPE("gap.construct");
    // Each entry keeps the agent its key's scan found best.
    struct HeapEntry {
      double regret;
      std::int32_t item;
      std::int32_t best_agent;
      bool operator<(const HeapEntry& other) const noexcept {
        // max-heap on regret; deterministic tie-break on the smaller item id.
        if (regret != other.regret) return regret < other.regret;
        return item > other.item;
      }
    };
    std::priority_queue<HeapEntry> heap;
    std::vector<std::int32_t> hopeless;  // no feasible agent right now
    for (std::int32_t j = 0; j < n; ++j) {
      const BestPair best = best_agents(cost, sizes, slack, j);
      if (best.best_agent < 0) {
        hopeless.push_back(j);
      } else {
        heap.push({best.regret(), j, best.best_agent});
      }
    }

    const auto assign = [&](std::int32_t item, std::int32_t agent) {
      result.agent_of_item[static_cast<std::size_t>(item)] = agent;
      slack[static_cast<std::size_t>(agent)] -=
          problem.sizes[static_cast<std::size_t>(item)];
    };

    while (!heap.empty()) {
      const HeapEntry entry = heap.top();
      heap.pop();
      const std::int32_t j = entry.item;
      if (result.agent_of_item[static_cast<std::size_t>(j)] >= 0) continue;
      // Slack only shrinks here.  While the agent this key's scan found best
      // still fits the item, a rescan keeps it best and can only raise the
      // regret (the second-best cost can only grow), and the popped key is
      // the largest, so the item goes to that agent without a rescan.
      if (!(slack[static_cast<std::size_t>(entry.best_agent)] + kCapTolerance <
            sizes[static_cast<std::size_t>(j)])) {
        assign(j, entry.best_agent);
        continue;
      }
      // Its best agent filled since this key was computed: refresh.
      const BestPair best = best_agents(cost, sizes, slack, j);
      if (best.best_agent < 0) {
        hopeless.push_back(j);
        continue;
      }
      const double fresh = best.regret();
      if (!heap.empty() && fresh + kEps < heap.top().regret) {
        heap.push({fresh, j, best.best_agent});  // someone else is more urgent now
        continue;
      }
      assign(j, best.best_agent);
    }

    // Items with no capacity-feasible agent go to the agent with the most
    // slack (cheapest such agent on ties); repair sorts it out below.
    result.construction_failures = static_cast<std::int32_t>(hopeless.size());
    for (const std::int32_t j : hopeless) {
      const double* column = cost.col(j);
      std::int32_t chosen = 0;
      for (std::int32_t i = 1; i < m; ++i) {
        const double si = slack[static_cast<std::size_t>(i)];
        const double sc = slack[static_cast<std::size_t>(chosen)];
        if (si > sc + kEps ||
            (std::abs(si - sc) <= kEps && column[i] < column[chosen])) {
          chosen = i;
        }
      }
      assign(j, chosen);
    }
  }

  // ---- Phase 2: capacity repair. ----
  // At most 8 single-item moves per item: guards against cycling on
  // infeasible instances.
  const std::int64_t repair_budget = 8 * static_cast<std::int64_t>(n);
  while (result.repair_moves < repair_budget) {
    QBP_PROF_SCOPE("gap.repair");
    // Most-overflowing agent.
    std::int32_t worst = -1;
    double worst_overflow = kCapTolerance;
    for (std::int32_t i = 0; i < m; ++i) {
      const double overflow = -slack[static_cast<std::size_t>(i)];
      if (overflow > worst_overflow) {
        worst_overflow = overflow;
        worst = i;
      }
    }
    if (worst < 0) break;  // feasible

    // Cheapest move (cost delta per unit size) out of `worst` into an agent
    // with room; if no fitting target exists, fall back to the move that
    // reduces total overflow the most.  Strict comparisons: earlier items
    // win ties.
    std::int32_t move_item = -1;
    std::int32_t move_target = -1;
    double move_score = kInf;
    std::int32_t fallback_item = -1;
    std::int32_t fallback_target = -1;
    double fallback_slack = -kInf;
    for (std::int32_t j = 0; j < n; ++j) {
      if (result.agent_of_item[static_cast<std::size_t>(j)] != worst) continue;
      const double size = problem.sizes[static_cast<std::size_t>(j)];
      const double* column = cost.col(j);
      for (std::int32_t i = 0; i < m; ++i) {
        if (i == worst) continue;
        const double target_slack = slack[static_cast<std::size_t>(i)];
        if (target_slack + kCapTolerance >= size) {
          const double delta = column[i] - column[worst];
          const double score = delta / size;
          if (score < move_score) {
            move_score = score;
            move_item = j;
            move_target = i;
          }
        } else if (target_slack > fallback_slack) {
          fallback_slack = target_slack;
          fallback_item = j;
          fallback_target = i;
        }
      }
    }
    if (move_item < 0) {
      if (fallback_item < 0) break;  // agent has no items or no other agent
      move_item = fallback_item;
      move_target = fallback_target;
    }
    const double size = problem.sizes[static_cast<std::size_t>(move_item)];
    slack[static_cast<std::size_t>(worst)] += size;
    slack[static_cast<std::size_t>(move_target)] -= size;
    result.agent_of_item[static_cast<std::size_t>(move_item)] = move_target;
    ++result.repair_moves;
  }

  // ---- Phase 3: local improvement. ----
  // The swap pass visits every item pair, so its four cost reads dominate
  // the whole solve.  Two scratch arrays turn them into sequential streams:
  // a row-major transpose (cost(a1, j2) contiguous in j2 for the scan's
  // fixed a1) and the per-item assigned cost c(agent(j), j).  Values are
  // copies of the same doubles, so results are bit-identical.
  std::vector<double> row_major;
  std::vector<double> assigned_cost;
  std::vector<double> masked_column;
  if (options.swap_improvement) {
    row_major.resize(static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
    for (std::int32_t j = 0; j < n; ++j) {
      const double* column = cost.col(j);
      for (std::int32_t i = 0; i < m; ++i) {
        row_major[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                  static_cast<std::size_t>(j)] = column[i];
      }
    }
    assigned_cost.resize(static_cast<std::size_t>(n));
    masked_column.resize(static_cast<std::size_t>(m));
  }
  // Both improvement passes are first-improvement walks: scan ascending
  // and commit each profitable item (or pair) as soon as it is found.
  for (int pass = 0; pass < options.improvement_passes; ++pass) {
    QBP_PROF_SCOPE("gap.improve");
    bool improved = false;
    for (std::int32_t j = 0; j < n; ++j) {
      const std::int32_t from = result.agent_of_item[static_cast<std::size_t>(j)];
      const double size = problem.sizes[static_cast<std::size_t>(j)];
      const double* column = cost.col(j);
      const double from_cost = column[from];
      std::int32_t best_to = -1;
      double best_delta = -kEps;
      for (std::int32_t i = 0; i < m; ++i) {
        if (i == from) continue;
        if (slack[static_cast<std::size_t>(i)] + kCapTolerance < size) continue;
        const double delta = column[i] - from_cost;
        if (delta < best_delta) {
          best_delta = delta;
          best_to = i;
        }
      }
      if (best_to < 0) continue;
      slack[static_cast<std::size_t>(from)] += size;
      slack[static_cast<std::size_t>(best_to)] -= size;
      result.agent_of_item[static_cast<std::size_t>(j)] = best_to;
      improved = true;
    }
    if (options.swap_improvement) {
      QBP_PROF_SCOPE("gap.improve_swap");
      std::int32_t* agent = result.agent_of_item.data();
      for (std::int32_t j = 0; j < n; ++j) {
        assigned_cost[static_cast<std::size_t>(j)] =
            cost.col(j)[agent[j]];
      }
      // The O(N^2) pair scan is the hottest loop of the whole solver.  The
      // profitability test runs first, over four sequential/L1 streams, and
      // only the rare candidates pay the capacity checks.  Reordering the
      // conjunction commits the exact same swaps (the conditions are
      // independent of evaluation order), and the delta arithmetic keeps the
      // original association, so results are bit-identical.  The same-agent
      // case (j2 already on a1) is masked by an infinite cost entry instead
      // of a branch: its delta becomes +inf and never passes the test.
      const double* assigned = assigned_cost.data();
      double* masked = masked_column.data();
      for (std::int32_t j1 = 0; j1 < n; ++j1) {
        const double* column1 = cost.col(j1);
        const double s1 = problem.sizes[static_cast<std::size_t>(j1)];
        // j1's agent, cost, slack bound and cost row change only when a swap
        // fires below; cache them across the inner scan, refresh on commit.
        std::int32_t a1 = agent[j1];
        double c11 = column1[a1];
        double limit1 = slack[static_cast<std::size_t>(a1)] + s1 + kCapTolerance;
        const double* row1 =
            row_major.data() + static_cast<std::size_t>(a1) *
                                   static_cast<std::size_t>(n);
        for (std::int32_t i = 0; i < m; ++i) masked[i] = column1[i];
        masked[a1] = kInf;
        const auto swap_delta = [&](std::int32_t j) {
          return ((masked[agent[j]] + row1[j]) - c11) - assigned[j];
        };
        // Four items per branch: a block whose smallest delta misses is
        // skipped whole; otherwise (and in the tail) the first hit is found
        // one item at a time.  A candidate the capacities reject resumes the
        // scan one past itself, as does a committed swap.  The running
        // minimum keeps a NaN d0 and passes over a later NaN, and a NaN
        // minimum also leaves the block to the one-at-a-time scan, so no
        // hit is ever skipped.
        std::int32_t j2 = j1 + 1;
        for (;;) {
          for (; j2 + 3 < n; j2 += 4) {
            const double d0 = swap_delta(j2);
            const double d1 = swap_delta(j2 + 1);
            const double d2 = swap_delta(j2 + 2);
            const double d3 = swap_delta(j2 + 3);
            double least = d0;
            least = d1 < least ? d1 : least;
            least = d2 < least ? d2 : least;
            least = d3 < least ? d3 : least;
            if (!(least >= -kEps)) break;
          }
          while (j2 < n && !(swap_delta(j2) < -kEps)) ++j2;
          if (j2 >= n) break;
          const std::int32_t a2 = agent[j2];
          const double s2 = problem.sizes[static_cast<std::size_t>(j2)];
          const bool fits =
              limit1 >= s2 &&
              slack[static_cast<std::size_t>(a2)] + s2 + kCapTolerance >= s1;
          if (fits) {
            const double c12 = row1[j2];  // cost(a1, j2)
            slack[static_cast<std::size_t>(a1)] += s1 - s2;
            slack[static_cast<std::size_t>(a2)] += s2 - s1;
            agent[j1] = a2;
            agent[j2] = a1;
            assigned_cost[static_cast<std::size_t>(j1)] = column1[a2];
            assigned_cost[static_cast<std::size_t>(j2)] = c12;
            improved = true;
            a1 = a2;
            c11 = column1[a1];
            limit1 = slack[static_cast<std::size_t>(a1)] + s1 + kCapTolerance;
            row1 = row_major.data() + static_cast<std::size_t>(a1) *
                                          static_cast<std::size_t>(n);
            for (std::int32_t i = 0; i < m; ++i) masked[i] = column1[i];
            masked[a1] = kInf;
          }
          ++j2;
        }
      }
    }
    if (!improved) break;
  }

  result.cost = gap_cost(problem, result.agent_of_item);
  result.feasible = gap_feasible(problem, result.agent_of_item);
  return result;
}

}  // namespace qbp
