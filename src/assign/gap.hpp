// Generalized Assignment Problem heuristic (Martello & Toth, "Knapsack
// Problems", ch. 7 -- the MTHG scheme the paper cites for its inner solves).
//
//   minimize   sum_j cost(agent(j), j)
//   subject to sum_{j : agent(j)=i} size_j <= capacity_i     (C1)
//              every item assigned to exactly one agent      (C3)
//
// Three phases:
//   1. max-regret construction: repeatedly assign the item whose best and
//      second-best feasible agents differ the most (it has the most to lose
//      from waiting), via a lazy priority queue;
//   2. capacity repair for items that had no feasible agent at construction
//      time (moves items out of overflowing agents, cheapest delta per unit
//      size first, at most 8N moves);
//   3. local improvement: single-item reassignment passes and (optionally)
//      pairwise swap passes.  Each swap pass is a first-improvement walk
//      over the pairs j1 < j2 in ascending order: a pair improves when its
//      cost change ((c(j1,a2) + c(j2,a1)) - c(j1,a1)) - c(j2,a2) < -kEps,
//      and commits when the capacities allow.  Costs are fixed within one
//      call, and the walk takes one of two paths, chosen from N and M only:
//        - below the crossover (N < 1,024 items, or M > 16 agents), a swap
//          memo: from the second swap pass on, a row j1 whose item has not
//          moved since its last scan tests only the partners that moved
//          since that scan and the pairs that scan found improving but
//          could not fit, then falls back to the full scan after its first
//          commit (a pair whose two items kept their agents keeps its
//          change);
//        - above it, a bound table: for every block of 64 consecutive items,
//          every superblock of 8 blocks and every agent pair (a1, a2), the
//          least c(j, a1) - c(j, a2) over the group's items j at a2.  Every
//          pass, a row j1 at a1 skips a superblock or block when
//          min over a2 of [c(j1, a2) - c(j1, a1) + that least] exceeds
//          -kEps + max|cost| * 2^-47: a swap's change is exactly that sum
//          for each partner, and the margin covers the rounding of both
//          forms (at most 9 and 8 units of C * 2^-53 for |costs| <= C, so
//          2^-47 C = 64 such units leaves room).  The table is built once
//          per call and kept equal to a fresh build on every agent change:
//          the mover's old column is recomputed in its block and
//          superblock, its new column folded in.  The memo's later passes
//          win on small instances; the table's every-pass skipping wins
//          from about N = 1,000 at M = 16, but at M = 32 it lost up to
//          N = 2,400 and at M = 64 at every N measured (to 3,200): a check
//          costs M adds and the table holds 9/8 M^2 doubles per 64 items
//          (36 bytes per item at M = 16, beside the 128 of the row-major
//          cost copy), so it runs only up to 16 agents (EXPERIMENTS.md,
//          "Bounded swap scans").
//      Every commit, rejection and answer is the full walk's.  The pairs
//      the exact test evaluated are the profiler event count
//      "gap.swap_pairs", the bounds checked "gap.swap_bounds".
//
// Inside the Burkard iteration (STEP 4 / STEP 6 of the paper) this is called
// with the linearized cost vectors eta / h, whose flat layout r = i + j * M
// is the one GapProblem reads, so they bind without a copy; the heuristic's
// solution steers the line search, so approximate optimality is
// acceptable, but C1/C3 feasibility of the *returned* vector matters and is
// reported via `feasible`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace qbp {

struct GapProblem {
  /// Column-major M x N costs, viewed, not owned: item j's M agent costs
  /// are contiguous at [j * M, (j + 1) * M).  This is the Burkard flat MN
  /// vector (r = i + j * M) and the layout every solver phase scans.
  std::span<const double> cost;
  std::int32_t agents = 0;         // M
  std::vector<double> sizes;       // N, positive
  std::vector<double> capacities;  // M, non-negative

  [[nodiscard]] std::int32_t num_agents() const noexcept { return agents; }
  [[nodiscard]] std::int32_t num_items() const noexcept {
    return agents > 0 ? static_cast<std::int32_t>(
                            cost.size() / static_cast<std::size_t>(agents))
                      : 0;
  }
  [[nodiscard]] double cost_at(std::int32_t agent,
                               std::int32_t item) const noexcept {
    return cost[static_cast<std::size_t>(item) *
                    static_cast<std::size_t>(agents) +
                static_cast<std::size_t>(agent)];
  }
};

struct GapOptions {
  /// Reassignment improvement passes after construction + repair.
  int improvement_passes = 2;
  /// Also run pairwise swap improvement (O(N^2 M) worst case per pass;
  /// below the crossover the first pass tests all N(N-1)/2 pairs and later
  /// ones mostly the pairs whose items moved, above it every pass skips the
  /// partner blocks a bound rules out); valuable under tight capacities,
  /// off by default for inner-loop use.
  bool swap_improvement = false;
};

struct GapResult {
  std::vector<std::int32_t> agent_of_item;  // N entries in [0, M)
  double cost = 0.0;
  /// True when all capacities are respected.
  bool feasible = false;
  /// Items that had no capacity-feasible agent when constructed.
  std::int32_t construction_failures = 0;
  /// Moves spent in the repair phase.
  std::int64_t repair_moves = 0;
};

[[nodiscard]] GapResult solve_gap(const GapProblem& problem,
                                  const GapOptions& options = {});

/// Total cost of an explicit assignment under `problem`.
[[nodiscard]] double gap_cost(const GapProblem& problem,
                              std::span<const std::int32_t> agent_of_item);

/// True when `agent_of_item` respects every capacity.
[[nodiscard]] bool gap_feasible(const GapProblem& problem,
                                std::span<const std::int32_t> agent_of_item);

}  // namespace qbp
