#include "core/delta_evaluator.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/prof.hpp"

namespace qbp {

namespace {

/// Change in the objective if `component` moved from its current partition
/// to `target` (everything else fixed).  O(degree(component)).
double move_delta_objective(const PartitionProblem& problem,
                            const Assignment& assignment,
                            std::int32_t component, PartitionId target) {
  const PartitionId source = assignment[component];
  const auto& topology = problem.topology();
  double quadratic = 0.0;
  if (source != target) {
    const auto& adjacency = problem.netlist().connection_matrix();
    const auto neighbors = adjacency.row_indices(component);
    const auto weights = adjacency.row_values(component);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const PartitionId other = assignment[neighbors[k]];
      quadratic += weights[k] * (topology.wire_cost(target, other) +
                                 topology.wire_cost(other, target) -
                                 topology.wire_cost(source, other) -
                                 topology.wire_cost(other, source));
    }
  }
  double delta = problem.beta() * quadratic;
  const auto& p = problem.linear_cost_matrix();
  if (!p.empty()) {
    delta += problem.alpha() * (p(target, component) - p(source, component));
  }
  return delta;
}

/// Change in the objective if two components swap partitions.
/// O(degree(a) + degree(b)).
double swap_delta_objective(const PartitionProblem& problem,
                            const Assignment& assignment,
                            std::int32_t component_a, std::int32_t component_b) {
  const PartitionId pa = assignment[component_a];
  const PartitionId pb = assignment[component_b];
  if (pa == pb) return 0.0;
  const auto& topology = problem.topology();
  const auto& adjacency = problem.netlist().connection_matrix();

  // Quadratic cost incident to {a, b} given (partition of a, partition of b);
  // the a-b bundle itself is accounted once, in a's row.
  const auto incident = [&](PartitionId part_a, PartitionId part_b) {
    double total = 0.0;
    const auto neighbors_a = adjacency.row_indices(component_a);
    const auto weights_a = adjacency.row_values(component_a);
    for (std::size_t k = 0; k < neighbors_a.size(); ++k) {
      const std::int32_t other = neighbors_a[k];
      const PartitionId part_other =
          other == component_b ? part_b : assignment[other];
      total += weights_a[k] * (topology.wire_cost(part_a, part_other) +
                               topology.wire_cost(part_other, part_a));
    }
    const auto neighbors_b = adjacency.row_indices(component_b);
    const auto weights_b = adjacency.row_values(component_b);
    for (std::size_t k = 0; k < neighbors_b.size(); ++k) {
      const std::int32_t other = neighbors_b[k];
      if (other == component_a) continue;
      const PartitionId part_other = assignment[other];
      total += weights_b[k] * (topology.wire_cost(part_b, part_other) +
                               topology.wire_cost(part_other, part_b));
    }
    return total;
  };

  double delta = problem.beta() * (incident(pb, pa) - incident(pa, pb));
  const auto& p = problem.linear_cost_matrix();
  if (!p.empty()) {
    delta += problem.alpha() * (p(pb, component_a) - p(pa, component_a) +
                                p(pa, component_b) - p(pb, component_b));
  }
  return delta;
}

/// Sum of (penalty - wire term) over the ordered violating pairs involving
/// `component` if it sat in partition `i`, with the position of one partner
/// optionally overridden (used by the swap variant; pass override = -1 for
/// moves).  Violations only occur on constrained pairs, so only the timing
/// partner list is scanned.
double violation_contribution(const PartitionProblem& problem, double penalty,
                              const Assignment& assignment,
                              std::int32_t component, PartitionId i,
                              std::int32_t override_partner,
                              PartitionId override_at,
                              std::int32_t skip_partner = -1) {
  const auto& topology = problem.topology();
  const auto& adjacency = problem.netlist().connection_matrix();
  const auto partners = problem.timing().partners(component);
  const auto bounds = problem.timing().bounds(component);
  double total = 0.0;
  for (std::size_t k = 0; k < partners.size(); ++k) {
    const std::int32_t partner = partners[k];
    if (partner == skip_partner) continue;
    const PartitionId other =
        partner == override_partner ? override_at : assignment[partner];
    if (other == Assignment::kUnassigned) continue;
    // Constraints hold for almost every pair almost all the time, so the
    // adjacency lookup (a binary search) only happens once a violation
    // actually fires.
    const bool forward = topology.delay(i, other) > bounds[k];
    const bool backward = topology.delay(other, i) > bounds[k];
    if (!forward && !backward) continue;
    const double wire_scale =
        problem.beta() * adjacency.value_or(component, partner, 0);
    if (forward) {
      total += penalty - wire_scale * topology.wire_cost(i, other);
    }
    if (backward) {
      total += penalty - wire_scale * topology.wire_cost(other, i);
    }
  }
  return total;
}

/// Change in the penalized value y^T Qhat y (objective + penalty embedding)
/// if `component` moved to `target`.
double move_delta_penalized(const PartitionProblem& problem, double penalty,
                            const Assignment& assignment,
                            std::int32_t component, PartitionId target) {
  const PartitionId source = assignment[component];
  if (source == target) return 0.0;
  return move_delta_objective(problem, assignment, component, target) +
         violation_contribution(problem, penalty, assignment, component, target,
                                -1, Assignment::kUnassigned) -
         violation_contribution(problem, penalty, assignment, component, source,
                                -1, Assignment::kUnassigned);
}

/// Change in the penalized value if the two components exchanged partitions.
double swap_delta_penalized(const PartitionProblem& problem, double penalty,
                            const Assignment& assignment,
                            std::int32_t component_a, std::int32_t component_b) {
  const PartitionId pa = assignment[component_a];
  const PartitionId pb = assignment[component_b];
  if (pa == pb) return 0.0;

  // Penalized delta = objective delta + change in the violation correction
  // over the ordered constrained pairs involving a or b.  Each state's
  // correction counts a's pairs (with b's position overridden) plus b's
  // pairs, skipping the (a, b) pair in b's scan so it is counted once.
  const auto correction = [&](PartitionId at_a, PartitionId at_b) {
    return violation_contribution(problem, penalty, assignment, component_a,
                                  at_a, component_b, at_b) +
           violation_contribution(problem, penalty, assignment, component_b,
                                  at_b, component_a, at_a, component_a);
  };

  return swap_delta_objective(problem, assignment, component_a, component_b) +
         correction(pb, pa) - correction(pa, pb);
}

/// cached_swap_delta off both built rows: row_a[p_b] - row_a[p_a] +
/// row_b[p_a] - row_b[p_b], plus the a-b pair term at the swapped positions
/// minus the two co-located ones the rows counted.  The pair term with a at
/// x and b at y is both ordered wire terms (scaled by `wire_scale` = beta *
/// a_ab), the penalty replacing a direction that breaks `bound`.  Row a
/// counts it with b fixed at pb, row b with a fixed at pa; the swap moves
/// both ends at once.
inline double swap_delta_off_rows(const PartitionTopology& topology,
                                  double penalty, const double* row_a,
                                  const double* row_b, PartitionId pa,
                                  PartitionId pb, double wire_scale,
                                  double bound) {
  const auto pair = [&](PartitionId x, PartitionId y) {
    const double forward = topology.delay(x, y) > bound
                               ? penalty
                               : wire_scale * topology.wire_cost(x, y);
    const double backward = topology.delay(y, x) > bound
                                ? penalty
                                : wire_scale * topology.wire_cost(y, x);
    return forward + backward;
  };
  const auto at = [](const double* row, PartitionId i) {
    return row[static_cast<std::size_t>(i)];
  };
  return at(row_a, pb) - at(row_a, pa) + at(row_b, pa) - at(row_b, pb) +
         pair(pb, pa) + pair(pa, pb) - pair(pa, pa) - pair(pb, pb);
}

}  // namespace

DeltaEvaluator::DeltaEvaluator(const PartitionProblem& problem, double penalty)
    : problem_(&problem),
      penalty_(penalty),
      m_(static_cast<std::size_t>(problem.num_partitions())),
      built_(static_cast<std::size_t>(problem.num_components()), 0),
      deltas_(m_, 0.0) {
  QBP_CHECK_GE(penalty, 0.0);
  const std::int32_t m = problem.num_partitions();
  const auto& topology = problem.topology();
  const auto square = static_cast<std::size_t>(m) * static_cast<std::size_t>(m);
  wire_both_.resize(square);
  for (PartitionId at = 0; at < m; ++at) {
    double* both = wire_both_.data() + static_cast<std::size_t>(at) * m_;
    for (PartitionId i = 0; i < m; ++i) {
      both[i] = topology.wire_cost(i, at) + topology.wire_cost(at, i);
    }
  }
  if (penalty_ == 0.0) return;
  by_delay_.resize(2 * square);
  for (PartitionId at = 0; at < m; ++at) {
    const auto order = [&](PartitionId* columns, auto delay) {
      for (PartitionId i = 0; i < m; ++i) columns[i] = i;
      std::sort(columns, columns + m, [&](PartitionId x, PartitionId y) {
        return delay(x) != delay(y) ? delay(x) > delay(y) : x < y;
      });
    };
    PartitionId* into = by_delay_.data() + static_cast<std::size_t>(at * m);
    order(into, [&](PartitionId i) { return topology.delay(i, at); });
    order(into + square, [&](PartitionId i) { return topology.delay(at, i); });
  }
}

void DeltaEvaluator::add_wire_terms(double scale, PartitionId at, double sign,
                                    double* row, double* incoming) const {
  if (at == Assignment::kUnassigned) return;
  const double signed_scale = sign * scale;
  const double* both = wire_both_.data() + static_cast<std::size_t>(at) * m_;
  if (incoming == nullptr) {
    for (std::size_t i = 0; i < m_; ++i) row[i] += signed_scale * both[i];
    return;
  }
  const double* b_row = problem_->topology().wire_cost().row(at).data();
  for (std::size_t i = 0; i < m_; ++i) {
    row[i] += signed_scale * both[i];
    incoming[i] += signed_scale * b_row[i];
  }
}

void DeltaEvaluator::add_violation_terms(std::int32_t wires, double bound,
                                         PartitionId at, double sign,
                                         double* row, double* incoming) const {
  const std::size_t m = m_;
  if (at == Assignment::kUnassigned || m == 0) return;
  const auto& topology = problem_->topology();
  const PartitionId* into = by_delay_.data() + static_cast<std::size_t>(at) * m;
  const PartitionId* out_of = into + m * m;
  // Both orders descend in delay, so each scan stops at its first column
  // that keeps the bound.  A column still gets its D(i, at) term before its
  // D(at, i) term, as in a column-by-column scan.
  if (!(topology.delay(into[0], at) > bound) &&
      !(topology.delay(at, out_of[0]) > bound)) {
    return;
  }
  const double wire_scale = problem_->beta() * wires;
  for (std::size_t r = 0; r < m && topology.delay(into[r], at) > bound; ++r) {
    const PartitionId i = into[r];
    row[static_cast<std::size_t>(i)] +=
        sign * (penalty_ - wire_scale * topology.wire_cost(i, at));
  }
  for (std::size_t r = 0; r < m && topology.delay(at, out_of[r]) > bound; ++r) {
    const auto i = static_cast<std::size_t>(out_of[r]);
    const double term =
        sign * (penalty_ - wire_scale * topology.wire_cost(at, out_of[r]));
    row[i] += term;
    if (incoming != nullptr) incoming[i] += term;
  }
}

double DeltaEvaluator::move_delta(const Assignment& assignment,
                                  std::int32_t component,
                                  PartitionId target) const {
  if (penalty_ > 0.0) {
    return move_delta_penalized(*problem_, penalty_, assignment, component,
                                target);
  }
  return move_delta_objective(*problem_, assignment, component, target);
}

double DeltaEvaluator::swap_delta(const Assignment& assignment,
                                  std::int32_t component_a,
                                  std::int32_t component_b) const {
  if (penalty_ > 0.0) {
    return swap_delta_penalized(*problem_, penalty_, assignment, component_a,
                                component_b);
  }
  return swap_delta_objective(*problem_, assignment, component_a, component_b);
}

void DeltaEvaluator::build_row(const Assignment& assignment,
                               std::int32_t component, double* row,
                               double* incoming) const {
  const std::int32_t m = problem_->num_partitions();
  const auto& adjacency = problem_->netlist().connection_matrix();
  const double beta = problem_->beta();

  std::fill(row, row + m_, 0.0);
  if (incoming != nullptr) std::fill(incoming, incoming + m_, 0.0);

  // Linear term.
  if (!problem_->linear_cost_matrix().empty()) {
    for (PartitionId i = 0; i < m; ++i) {
      row[static_cast<std::size_t>(i)] =
          problem_->alpha() * problem_->linear_cost(i, component);
    }
  }

  const auto neighbors = adjacency.row_indices(component);
  const auto wires = adjacency.row_values(component);
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    add_wire_terms(beta * wires[k], assignment[neighbors[k]], 1.0, row,
                   incoming);
  }

  if (penalty_ > 0.0) {
    const auto partners = problem_->timing().partners(component);
    const auto bounds = problem_->timing().bounds(component);
    RowCursor<std::int32_t> wires_of(neighbors, wires);
    for (std::size_t k = 0; k < partners.size(); ++k) {
      add_violation_terms(wires_of.value_at(partners[k], 0), bounds[k],
                          assignment[partners[k]], 1.0, row, incoming);
    }
  }
}

void DeltaEvaluator::build(const Assignment& assignment,
                           std::int32_t component) {
  QBP_PROF_SCOPE("delta.row_build");
  if (misses_ == 0) {  // the first row fixes the point
    point_ = assignment;
    incident_.resize(built_.size() * m_);
  }
  QBP_DCHECK(point_[component] == assignment[component])
      << "row read for an assignment the evaluator does not follow";
  ++misses_;
  build_row(assignment, component, incident_.data() + offset(component),
            incoming_row(component));
  built_[static_cast<std::size_t>(component)] = 1;
}

const double* DeltaEvaluator::cached_row(const Assignment& assignment,
                                         std::int32_t component) {
  if (built_[static_cast<std::size_t>(component)] != 0) {
    ++hits_;
  } else {
    build(assignment, component);
  }
  return incident_.data() + offset(component);
}

void DeltaEvaluator::patch_dependents(std::int32_t component,
                                      PartitionId source, PartitionId target) {
  const auto& adjacency = problem_->netlist().connection_matrix();
  const double beta = problem_->beta();

  // Each dependent row loses the mover's terms at `source` and gains them
  // at `target`.
  const auto neighbors = adjacency.row_indices(component);
  const auto wires = adjacency.row_values(component);
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    const std::int32_t dependent = neighbors[k];
    if (built_[static_cast<std::size_t>(dependent)] == 0) continue;
    double* row = incident_.data() + offset(dependent);
    double* in = incoming_row(dependent);
    const double scale = beta * wires[k];
    add_wire_terms(scale, source, -1.0, row, in);
    add_wire_terms(scale, target, 1.0, row, in);
  }

  if (penalty_ > 0.0) {
    // A is symmetric, so the mover's own adjacency row holds each
    // partner's wire count; the cursor walks it beside the partner row.
    const auto partners = problem_->timing().partners(component);
    const auto bounds = problem_->timing().bounds(component);
    RowCursor<std::int32_t> wires_of(neighbors, wires);
    for (std::size_t k = 0; k < partners.size(); ++k) {
      const std::int32_t dependent = partners[k];
      if (built_[static_cast<std::size_t>(dependent)] == 0) continue;
      double* row = incident_.data() + offset(dependent);
      double* in = incoming_row(dependent);
      const std::int32_t pair_wires = wires_of.value_at(dependent, 0);
      add_violation_terms(pair_wires, bounds[k], source, -1.0, row, in);
      add_violation_terms(pair_wires, bounds[k], target, 1.0, row, in);
    }
  }
}

std::span<const double> DeltaEvaluator::move_deltas(const Assignment& assignment,
                                                    std::int32_t component) {
  const double* incident = cached_row(assignment, component);
  const double baseline =
      incident[static_cast<std::size_t>(assignment[component])];
  for (std::size_t i = 0; i < deltas_.size(); ++i) {
    deltas_[i] = incident[i] - baseline;
  }
  return deltas_;
}

double DeltaEvaluator::cached_swap_delta(const Assignment& assignment,
                                         std::int32_t component_a,
                                         std::int32_t component_b) {
  const PartitionId pa = assignment[component_a];
  const PartitionId pb = assignment[component_b];
  if (pa == pb) return 0.0;
  const double* row_a = cached_row(assignment, component_a);
  const double* row_b = cached_row(assignment, component_b);
  const double wire_scale =
      problem_->beta() * problem_->netlist().connection_matrix().value_or(
                             component_a, component_b, 0);
  const double bound =
      penalty_ > 0.0 ? problem_->timing().max_delay(component_a, component_b)
                     : TimingConstraints::kUnconstrained;
  return swap_delta_off_rows(problem_->topology(), penalty_, row_a, row_b, pa,
                             pb, wire_scale, bound);
}

double DeltaEvaluator::cached_swap_delta(const Assignment& assignment,
                                         std::int32_t component_a,
                                         std::int32_t component_b,
                                         std::int32_t wires, double bound) {
  const PartitionId pa = assignment[component_a];
  const PartitionId pb = assignment[component_b];
  if (pa == pb) return 0.0;
  const double* row_a = cached_row(assignment, component_a);
  const double* row_b = cached_row(assignment, component_b);
  return swap_delta_off_rows(
      problem_->topology(), penalty_, row_a, row_b, pa, pb,
      problem_->beta() * wires,
      penalty_ > 0.0 ? bound : TimingConstraints::kUnconstrained);
}

void DeltaEvaluator::commit_move(Assignment& assignment, std::int32_t component,
                                 PartitionId target) {
  const PartitionId source = assignment[component];
  if (source == target) return;
  assignment.set(component, target);
  if (misses_ == 0) return;  // no rows yet: the first build fixes the point
  point_.set(component, target);
  patch_dependents(component, source, target);
}

void DeltaEvaluator::follow(const Assignment& assignment) {
  QBP_CHECK_EQ(assignment.num_components(), problem_->num_components());
  if (misses_ == 0) {
    point_ = assignment;
    return;
  }
  QBP_PROF_SCOPE("delta.follow");
  std::vector<std::int32_t> movers;
  for (std::int32_t j = 0; j < problem_->num_components(); ++j) {
    const PartitionId source = point_[j];
    const PartitionId target = assignment[j];
    if (source == target) continue;
    point_.set(j, target);
    patch_dependents(j, source, target);
    movers.push_back(j);
  }
  QBP_DCHECK(patched_rows_match(movers))
      << "follow() patched a row away from its fresh build";
}

void DeltaEvaluator::eta(const Assignment& u, std::span<double> out) {
  const std::int32_t n = problem_->num_components();
  QBP_CHECK_EQ(static_cast<std::int64_t>(out.size()), problem_->flat_size());
  QBP_DCHECK(u.is_complete());
  follow(u);
  if (incoming_.empty()) {
    // From here on every build and patch keeps the incoming parts; rows
    // built before this first read get theirs from a fresh build.
    incoming_.resize(built_.size() * m_);
    std::vector<double> scratch(m_);
    for (std::int32_t j = 0; j < n; ++j) {
      if (built_[static_cast<std::size_t>(j)] != 0) {
        build_row(point_, j, scratch.data(), incoming_row(j));
      }
    }
  }
  for (std::int32_t j = 0; j < n; ++j) {
    if (built_[static_cast<std::size_t>(j)] == 0) build(u, j);
  }
  std::copy(incoming_.begin(), incoming_.end(), out.begin());
  // q-hat(r, r) = alpha * p contributes when u_r = 1.
  for (std::int32_t j = 0; j < n; ++j) {
    out[offset(j) + static_cast<std::size_t>(u[j])] +=
        problem_->alpha() * problem_->linear_cost(u[j], j);
  }
}

bool DeltaEvaluator::patched_rows_match(
    std::span<const std::int32_t> movers) const {
  // Audit the dependents of up to kSampled movers spread over the list.
  constexpr std::size_t kSampled = 8;
  constexpr double kTolerance = 1e-9;
  const std::size_t stride = std::max<std::size_t>(1, movers.size() / kSampled);
  const bool with_incoming = !incoming_.empty();
  std::vector<double> fresh(m_);
  std::vector<double> fresh_incoming(m_);
  const auto same = [&](const double* have, const std::vector<double>& want) {
    for (std::size_t i = 0; i < m_; ++i) {
      if (!check::within_relative(have[i], want[i], kTolerance)) return false;
    }
    return true;
  };
  const auto matches = [&](std::int32_t dependent) {
    if (built_[static_cast<std::size_t>(dependent)] == 0) return true;
    build_row(point_, dependent, fresh.data(),
              with_incoming ? fresh_incoming.data() : nullptr);
    return same(incident_.data() + offset(dependent), fresh) &&
           (!with_incoming ||
            same(incoming_.data() + offset(dependent), fresh_incoming));
  };
  for (std::size_t at = 0; at < movers.size(); at += stride) {
    const std::int32_t mover = movers[at];
    for (const std::int32_t neighbor :
         problem_->netlist().connection_matrix().row_indices(mover)) {
      if (!matches(neighbor)) return false;
    }
    if (penalty_ > 0.0) {
      for (const std::int32_t partner : problem_->timing().partners(mover)) {
        if (!matches(partner)) return false;
      }
    }
  }
  return true;
}

}  // namespace qbp
