// Shared helpers for the qbpart test suite: deterministic tiny random
// problem instances sized for the brute-force oracle.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "assign/gap.hpp"
#include "core/placement.hpp"
#include "core/problem.hpp"
#include "netlist/netlist.hpp"
#include "partition/topology.hpp"
#include "timing/conflict_table.hpp"
#include "timing/constraints.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace qbp::test {

/// Restores the process fail mode on scope exit; every test that switches
/// modes uses one so a failing assertion cannot leak kThrow/kLogAndCount
/// into later tests.
class FailModeGuard {
 public:
  explicit FailModeGuard(check::FailMode mode) : saved_(check::fail_mode()) {
    check::set_fail_mode(mode);
  }
  ~FailModeGuard() { check::set_fail_mode(saved_); }
  FailModeGuard(const FailModeGuard&) = delete;
  FailModeGuard& operator=(const FailModeGuard&) = delete;

 private:
  check::FailMode saved_;
};

/// A GAP instance as an M x N cost matrix (rows are agents).  problem()
/// views a column-major copy, item j's M costs at [j * M, (j + 1) * M),
/// kept in `by_item` while the instance lives.
struct GapInstance {
  Matrix<double> cost;
  std::vector<double> sizes;
  std::vector<double> capacities;
  mutable std::vector<double> by_item;

  [[nodiscard]] GapProblem problem() const {
    by_item.clear();
    for (std::int32_t j = 0; j < cost.cols(); ++j) {
      for (std::int32_t i = 0; i < cost.rows(); ++i) by_item.push_back(cost(i, j));
    }
    return {by_item, cost.rows(), sizes, capacities};
  }
};

/// Random GAP: integer costs in [min_cost, max_cost], sizes in [0.5, 2),
/// every capacity `slack` times an even share of the total size.
inline GapInstance random_gap(std::int32_t m, std::int32_t n, double slack,
                              std::uint64_t seed, std::int64_t min_cost = 0,
                              std::int64_t max_cost = 30) {
  Rng rng(seed);
  GapInstance gap{Matrix<double>(m, n, 0.0), {}, {}, {}};
  for (std::int32_t i = 0; i < m; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      gap.cost(i, j) = static_cast<double>(rng.next_int(min_cost, max_cost));
    }
  }
  gap.sizes.resize(static_cast<std::size_t>(n));
  double total = 0.0;
  for (auto& size : gap.sizes) {
    size = rng.next_double(0.5, 2.0);
    total += size;
  }
  gap.capacities.assign(static_cast<std::size_t>(m), total / m * slack);
  return gap;
}

/// Exhaustive GAP optimum (M^N enumeration); `feasible` is false when no
/// assignment fits.
inline double brute_force_gap(const GapProblem& problem, bool& feasible) {
  const std::int32_t m = problem.num_agents();
  const std::int32_t n = problem.num_items();
  std::vector<std::int32_t> assignment(static_cast<std::size_t>(n), 0);
  double best = std::numeric_limits<double>::infinity();
  feasible = false;
  while (true) {
    if (gap_feasible(problem, assignment)) {
      feasible = true;
      best = std::min(best, gap_cost(problem, assignment));
    }
    std::int32_t j = 0;
    while (j < n) {
      if (++assignment[static_cast<std::size_t>(j)] < m) break;
      assignment[static_cast<std::size_t>(j)] = 0;
      ++j;
    }
    if (j == n) break;
  }
  return best;
}

struct TinySpec {
  std::int32_t num_components = 6;
  std::int32_t num_partitions = 3;
  double wire_probability = 0.5;
  double constraint_probability = 0.3;
  /// Per-partition capacity as a multiple of (total size / M); > 1 needed
  /// for feasibility headroom.
  double capacity_factor = 1.6;
  bool with_linear_term = false;
  std::uint64_t seed = 1;
};

/// A random small PP(1,1) instance on a 1 x M "row" topology (Manhattan
/// distances |i1 - i2|), suitable for brute force (M^N <= ~1e5).
/// Timing bounds are drawn in [1, M-1], so instances are usually but not
/// always feasible -- callers that need feasibility should check
/// brute_force_constrained(...).found.
inline PartitionProblem make_tiny_problem(const TinySpec& spec) {
  Rng rng(spec.seed);
  Netlist netlist("tiny");
  for (std::int32_t j = 0; j < spec.num_components; ++j) {
    std::string name = "c";
    name += std::to_string(j);
    netlist.add_component(name, rng.next_double(0.5, 3.0));
  }
  for (std::int32_t a = 0; a < spec.num_components; ++a) {
    for (std::int32_t b = a + 1; b < spec.num_components; ++b) {
      if (rng.next_bool(spec.wire_probability)) {
        netlist.add_wires(a, b, static_cast<std::int32_t>(rng.next_int(1, 4)));
      }
    }
  }

  const std::int32_t m = spec.num_partitions;
  PartitionTopology topology = PartitionTopology::grid(1, m, CostKind::kManhattan);
  const double capacity =
      netlist.total_size() / m * spec.capacity_factor;
  for (PartitionId i = 0; i < m; ++i) topology.set_capacity(i, capacity);

  TimingConstraints timing(spec.num_components);
  if (m > 1) {
    for (std::int32_t a = 0; a < spec.num_components; ++a) {
      for (std::int32_t b = a + 1; b < spec.num_components; ++b) {
        if (rng.next_bool(spec.constraint_probability)) {
          timing.add(a, b, static_cast<double>(rng.next_int(1, m - 1)));
        }
      }
    }
  }

  Matrix<double> p;
  if (spec.with_linear_term) {
    p = Matrix<double>(m, spec.num_components, 0.0);
    for (PartitionId i = 0; i < m; ++i) {
      for (std::int32_t j = 0; j < spec.num_components; ++j) {
        p(i, j) = rng.next_double(0.0, 5.0);
      }
    }
  }

  return PartitionProblem(std::move(netlist), std::move(topology),
                          std::move(timing), std::move(p));
}

/// A deterministic complete assignment (round-robin), not necessarily
/// feasible.
inline Assignment round_robin(std::int32_t num_components,
                              std::int32_t num_partitions) {
  Assignment assignment(num_components, num_partitions);
  for (std::int32_t j = 0; j < num_components; ++j) {
    assignment.set(j, j % num_partitions);
  }
  return assignment;
}

/// A random complete assignment.
inline Assignment random_complete(std::int32_t num_components,
                                  std::int32_t num_partitions, Rng& rng) {
  Assignment assignment(num_components, num_partitions);
  for (std::int32_t j = 0; j < num_components; ++j) {
    assignment.set(j, static_cast<PartitionId>(
                          rng.next_below(static_cast<std::uint64_t>(num_partitions))));
  }
  return assignment;
}

/// A random instance with a feasible start (the hidden placement the
/// capacities and timing bounds are built around), for the GKL pair-choice
/// oracle and the patch tests.
/// Odd seeds use asymmetric fractional B and D, fractional alpha and beta
/// and a linear term; even seeds use an integer Manhattan grid, where equal
/// deltas -- and so the tie-break -- are common.  Two seeds in every 40
/// (one of each kind) have more than 64 partitions.
struct OracleInstance {
  PartitionProblem problem;
  Assignment start;
};

inline OracleInstance make_oracle_instance(std::uint64_t seed) {
  Rng rng(seed);
  const bool wide = seed % 40 <= 1;
  const bool fractional = seed % 2 == 1;
  const auto n = static_cast<std::int32_t>(wide ? 100 : rng.next_int(8, 40));
  const std::int32_t rows = wide ? 7 : static_cast<std::int32_t>(rng.next_int(1, 3));
  const std::int32_t cols = wide ? 10 : static_cast<std::int32_t>(rng.next_int(2, 3));
  const std::int32_t m = rows * cols;

  Netlist netlist("oracle");
  for (std::int32_t j = 0; j < n; ++j) {
    netlist.add_component("c" + std::to_string(j),
                          fractional ? rng.next_double(0.5, 3.0)
                                     : static_cast<double>(rng.next_int(1, 3)));
  }
  const double wire_probability = wide ? 0.05 : rng.next_double(0.1, 0.4);
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = a + 1; b < n; ++b) {
      if (rng.next_bool(wire_probability)) {
        netlist.add_wires(a, b, static_cast<std::int32_t>(rng.next_int(1, 4)));
      }
    }
  }

  PartitionTopology topology = PartitionTopology::grid(rows, cols);
  if (fractional) {
    Matrix<double> wire_cost(m, m, 0.0);
    Matrix<double> delay(m, m, 0.0);
    for (PartitionId i = 0; i < m; ++i) {
      for (PartitionId k = 0; k < m; ++k) {
        if (i == k) continue;
        wire_cost(i, k) = rng.next_double(0.0, 3.0);
        delay(i, k) = rng.next_double(0.0, 4.0);
      }
    }
    topology = PartitionTopology::custom(std::move(wire_cost), std::move(delay),
                                         std::vector<double>(m, 0.0));
  }

  Assignment start(n, m);
  for (std::int32_t j = 0; j < n; ++j) {
    start.set(j, static_cast<PartitionId>(rng.next_below(static_cast<std::uint64_t>(m))));
  }
  // Tight capacities: the start's usage plus a little headroom.
  std::vector<double> capacities(static_cast<std::size_t>(m), 0.0);
  for (std::int32_t j = 0; j < n; ++j) {
    capacities[static_cast<std::size_t>(start[j])] += netlist.component_size(j);
  }
  for (auto& capacity : capacities) capacity += rng.next_double(0.0, 2.0);
  topology.set_capacities(std::move(capacities));

  // Timing partners with fractional bounds the start meets.
  TimingConstraints timing(n);
  const double constraint_probability = wide ? 0.03 : rng.next_double(0.0, 0.3);
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = a + 1; b < n; ++b) {
      if (!rng.next_bool(constraint_probability)) continue;
      const double reach = std::max(topology.delay(start[a], start[b]),
                                    topology.delay(start[b], start[a]));
      timing.add(a, b, reach + rng.next_double(0.0, 1.5));
    }
  }

  Matrix<double> p;
  double alpha = 1.0;
  double beta = 1.0;
  if (fractional) {
    p = Matrix<double>(m, n, 0.0);
    for (double& entry : p.flat()) entry = rng.next_double(0.0, 5.0);
    alpha = rng.next_double(0.1, 2.0);
    beta = rng.next_double(0.1, 2.0);
  }
  return {PartitionProblem(std::move(netlist), std::move(topology),
                           std::move(timing), std::move(p), alpha, beta),
          std::move(start)};
}

/// A capacity whose room, capacity + CapacityLedger::kTolerance in double
/// arithmetic, is exactly `room`: a trade whose sum lands on `room` sits on
/// the capacity edge, which `<=` admits and `<` would not.
inline double capacity_with_room(double room) {
  double capacity = room - CapacityLedger::kTolerance;
  while (capacity + CapacityLedger::kTolerance > room) {
    capacity = std::nextafter(capacity, -std::numeric_limits<double>::infinity());
  }
  while (capacity + CapacityLedger::kTolerance < room) {
    capacity = std::nextafter(capacity, std::numeric_limits<double>::infinity());
  }
  QBP_CHECK_EQ(capacity + CapacityLedger::kTolerance, room)
      << "no capacity has room " << room;
  return capacity;
}

/// Does any complete assignment satisfy C1 and C2?  An exhaustive
/// depth-first search over components in id order that prunes a branch as
/// soon as a partition overflows or a constraint to an already-placed
/// partner breaks: the proof the start-path tests hold make_initial to, on
/// instances whose M^N is too large to enumerate outright.
inline bool feasible_placement_exists(const PartitionProblem& problem) {
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  const auto& sizes = problem.netlist().sizes();
  Assignment assignment(n, m);
  CapacityLedger ledger(assignment, sizes, problem.topology().capacities());
  const auto place = [&](const auto& self, std::int32_t j) -> bool {
    if (j == n) return problem.is_feasible(assignment);
    const double size = sizes[static_cast<std::size_t>(j)];
    for (PartitionId i = 0; i < m; ++i) {
      if (!ledger.fits(i, size) ||
          !problem.timing().component_feasible_at(assignment, problem.topology(),
                                                  j, i)) {
        continue;
      }
      assignment.set(j, i);
      ledger.add(i, size);
      if (self(self, j + 1)) return true;
      ledger.remove(i, size);
    }
    assignment.set(j, Assignment::kUnassigned);
    return false;
  };
  return place(place, 0);
}

/// A random jump from `u`: each component moves, with probability
/// `fraction`, to a uniformly drawn other partition (the shape of a Burkard
/// STEP 6 jump; C1 is not kept).
inline Assignment random_jump(const Assignment& u, double fraction, Rng& rng) {
  Assignment jumped = u;
  const auto m = static_cast<std::uint64_t>(u.num_partitions());
  for (std::int32_t j = 0; j < u.num_components(); ++j) {
    if (m < 2 || !rng.next_bool(fraction)) continue;
    const auto shift = static_cast<PartitionId>(1 + rng.next_below(m - 1));
    jumped.set(j, (u[j] + shift) % u.num_partitions());
  }
  return jumped;
}

/// The Section 3.3 worked example (3 components, 2 x 2 grid, 5 + 2 wires,
/// adjacency constraints on a-b and b-c); `capacity` defaults to the
/// unconstrained setting.
inline PartitionProblem make_paper_example(double capacity = 3.0) {
  Netlist netlist("paper-3.3");
  const auto a = netlist.add_component("a", 1.0);
  const auto b = netlist.add_component("b", 1.0);
  const auto c = netlist.add_component("c", 1.0);
  netlist.add_wires(a, b, 5);
  netlist.add_wires(b, c, 2);
  PartitionTopology topology =
      PartitionTopology::grid(2, 2, CostKind::kManhattan, capacity);
  TimingConstraints timing(3);
  timing.add(a, b, 1.0);
  timing.add(b, c, 1.0);
  return PartitionProblem(std::move(netlist), std::move(topology),
                          std::move(timing));
}

/// Where `placement`'s kept parts differ from fresh builds over its
/// assignment: a partition's ledger usage by more than 1e-9, or any entry
/// of its conflict table (which must be attached).  Empty when they match.
inline std::string placement_drift(const Placement& placement) {
  const PartitionProblem& problem = placement.problem();
  const Assignment& assignment = placement.assignment();
  const CapacityLedger ledger(assignment, problem.netlist().sizes(),
                              problem.topology().capacities());
  for (PartitionId i = 0; i < problem.num_partitions(); ++i) {
    if (std::abs(placement.ledger().usage(i) - ledger.usage(i)) > 1e-9) {
      return "usage of " + std::to_string(i) + ": " +
             std::to_string(placement.ledger().usage(i)) + " kept, " +
             std::to_string(ledger.usage(i)) + " recounted";
    }
  }
  const ConflictTable table(problem.timing(), problem.topology(), assignment);
  for (std::int32_t j = 0; j < problem.num_components(); ++j) {
    for (PartitionId i = 0; i < problem.num_partitions(); ++i) {
      if (placement.conflicts(j, i) != table(j, i)) {
        return "conflicts(" + std::to_string(j) + ", " + std::to_string(i) +
               "): " + std::to_string(placement.conflicts(j, i)) +
               " kept, " + std::to_string(table(j, i)) + " recounted";
      }
    }
  }
  return {};
}

}  // namespace qbp::test
