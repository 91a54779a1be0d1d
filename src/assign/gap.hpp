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
//      pairwise swap passes.
//
// Inside the Burkard iteration (STEP 4 / STEP 6 of the paper) this is called
// with the linearized cost vectors eta / h reshaped to an M x N matrix; the
// heuristic's solution steers the line search, so approximate optimality is
// acceptable, but C1/C3 feasibility of the *returned* vector matters and is
// reported via `feasible`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/dense.hpp"

namespace qbp {

struct GapProblem {
  /// M x N (row-major).  Ignored when `cost_flat` is set.
  Matrix<double> cost;
  /// Zero-copy alternative: the Burkard flat MN vector (r = i + j * M), i.e.
  /// column-major with item j's M agent costs contiguous at [j*M, (j+1)*M).
  /// This is the layout every solver phase scans, so the hot path consumes
  /// it directly -- no reshape copy, no strided access.  `flat_agents` = M.
  std::span<const double> cost_flat;
  std::int32_t flat_agents = 0;
  std::vector<double> sizes;       // N, positive
  std::vector<double> capacities;  // M, non-negative

  [[nodiscard]] std::int32_t num_agents() const noexcept {
    return cost_flat.empty() ? cost.rows() : flat_agents;
  }
  [[nodiscard]] std::int32_t num_items() const noexcept {
    if (cost_flat.empty()) return cost.cols();
    return flat_agents > 0
               ? static_cast<std::int32_t>(cost_flat.size() /
                                           static_cast<std::size_t>(flat_agents))
               : 0;
  }
  /// Cost of assigning `item` to `agent` under either representation.
  [[nodiscard]] double cost_at(std::int32_t agent,
                               std::int32_t item) const noexcept {
    if (cost_flat.empty()) return cost(agent, item);
    return cost_flat[static_cast<std::size_t>(item) *
                         static_cast<std::size_t>(flat_agents) +
                     static_cast<std::size_t>(agent)];
  }
};

struct GapOptions {
  /// Reassignment improvement passes after construction + repair.
  int improvement_passes = 2;
  /// Also run pairwise swap improvement (O(N^2 M) worst case per pass);
  /// valuable under tight capacities, off by default for inner-loop use.
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

/// Lagrangian lower bound on the GAP optimum (Jornsten & Nasberg style):
/// relax the capacity constraints with multipliers lambda_i >= 0,
///
///   L(lambda) = sum_j min_i (c_ij + lambda_i * s_j) - sum_i lambda_i * cap_i,
///
/// and maximize by projected subgradient ascent.  Every L(lambda) is a
/// valid bound; the best over `iterations` steps is returned.  Used to
/// report optimality gaps for heuristic solutions.
[[nodiscard]] double gap_lower_bound(const GapProblem& problem,
                                     std::int32_t iterations = 60);

}  // namespace qbp
