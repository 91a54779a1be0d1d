#include "core/problem.hpp"

#include <cmath>
#include <sstream>

#include "partition/cost.hpp"
#include "sparse/csr.hpp"

#include "util/check.hpp"

namespace qbp {

PartitionProblem::PartitionProblem(Netlist netlist, PartitionTopology topology,
                                   TimingConstraints timing, Matrix<double> p,
                                   double alpha, double beta)
    : netlist_(std::move(netlist)),
      topology_(std::move(topology)),
      timing_(std::move(timing)),
      p_(std::move(p)),
      alpha_(alpha),
      beta_(beta) {
  netlist_.finalize();
  timing_.finalize();
}

bool PartitionProblem::satisfies_capacity(const Assignment& assignment) const {
  return qbp::satisfies_capacity(assignment, netlist_.sizes(),
                                 topology_.capacities());
}

bool PartitionProblem::satisfies_timing(const Assignment& assignment) const {
  return timing_.is_feasible(assignment, topology_);
}

bool PartitionProblem::is_feasible(const Assignment& assignment) const {
  return assignment.is_complete() && satisfies_capacity(assignment) &&
         satisfies_timing(assignment);
}

double PartitionProblem::objective(const Assignment& assignment) const {
  return qbp::objective(netlist_, topology_, p_, alpha_, beta_, assignment);
}

double PartitionProblem::penalized_value(const Assignment& assignment,
                                         double penalty) const {
  QBP_CHECK_GT(penalty, 0.0) << "Q-hat penalty must be positive";
  // y^T Qhat y = true objective + penalty for every ordered violating pair
  // - the wire term those violating pairs would otherwise have contributed.
  // Dc's rows in order, each beside a cursor over j1's ascending adjacency
  // row for the violators' wire counts.
  double value = objective(assignment);
  const auto& adjacency = netlist_.connection_matrix();
  const auto& dc = timing_.matrix();
  for (std::int32_t j1 = 0; j1 < dc.rows(); ++j1) {
    const PartitionId p1 = assignment[j1];
    if (p1 == Assignment::kUnassigned) continue;
    const auto partners = dc.row_indices(j1);
    const auto bounds = dc.row_values(j1);
    RowCursor<std::int32_t> wires_of(adjacency.row_indices(j1),
                                     adjacency.row_values(j1));
    for (std::size_t k = 0; k < partners.size(); ++k) {
      const PartitionId p2 = assignment[partners[k]];
      if (p2 == Assignment::kUnassigned) continue;
      if (topology_.delay(p1, p2) > bounds[k]) {
        const auto wires = wires_of.value_at(partners[k], 0);
        value += penalty - beta_ * wires * topology_.wire_cost(p1, p2);
      }
    }
  }
  return value;
}

double PartitionProblem::wirelength(const Assignment& assignment) const {
  return qbp::wirelength(netlist_, topology_, assignment);
}

PartitionProblem PartitionProblem::normalized() const {
  const std::int32_t m = num_partitions();
  Matrix<double> scaled_b(m, m, 0.0);
  Matrix<double> delay(m, m, 0.0);
  for (std::int32_t i1 = 0; i1 < m; ++i1) {
    for (std::int32_t i2 = 0; i2 < m; ++i2) {
      scaled_b(i1, i2) = beta_ * topology_.wire_cost(i1, i2);
      delay(i1, i2) = topology_.delay(i1, i2);
    }
  }
  Matrix<double> scaled_p = p_;
  if (!scaled_p.empty()) {
    for (std::int32_t i = 0; i < scaled_p.rows(); ++i) {
      for (std::int32_t j = 0; j < scaled_p.cols(); ++j) {
        scaled_p(i, j) *= alpha_;
      }
    }
  }
  return PartitionProblem(
      netlist_,
      PartitionTopology::custom(std::move(scaled_b), std::move(delay),
                                topology_.capacities()),
      timing_, std::move(scaled_p), 1.0, 1.0);
}

PartitionProblem PartitionProblem::with_zero_wire_cost() const {
  const std::int32_t m = num_partitions();
  Matrix<double> zero_b(m, m, 0.0);
  Matrix<double> delay(m, m, 0.0);
  for (std::int32_t i1 = 0; i1 < m; ++i1) {
    for (std::int32_t i2 = 0; i2 < m; ++i2) delay(i1, i2) = topology_.delay(i1, i2);
  }
  return PartitionProblem(
      netlist_,
      PartitionTopology::custom(std::move(zero_b), std::move(delay),
                                topology_.capacities()),
      timing_, p_, alpha_, beta_);
}

PartitionProblem PartitionProblem::without_timing() const {
  return PartitionProblem(netlist_, topology_,
                          TimingConstraints(num_components()), p_, alpha_, beta_);
}

std::string PartitionProblem::validate() const {
  if (auto message = netlist_.validate(); !message.empty()) {
    return "netlist: " + message;
  }
  if (auto message = topology_.validate(); !message.empty()) {
    return "topology: " + message;
  }
  if (timing_.num_components() != num_components()) {
    return "timing constraints sized for a different component count";
  }
  if (!p_.empty()) {
    if (p_.rows() != num_partitions() || p_.cols() != num_components()) {
      return "linear cost matrix P is not M x N";
    }
    for (std::int32_t i = 0; i < p_.rows(); ++i) {
      for (std::int32_t j = 0; j < p_.cols(); ++j) {
        if (std::isnan(p_(i, j))) {
          std::ostringstream out;
          out << "P(" << i << ", " << j << ") is NaN";
          return out.str();
        }
        if (p_(i, j) < 0.0) {
          std::ostringstream out;
          out << "P(" << i << ", " << j
              << ") is negative; the QBP linearization assumes a "
                 "non-negative cost matrix (Section 4.1)";
          return out.str();
        }
      }
    }
  }
  if (!(alpha_ >= 0.0 && beta_ >= 0.0)) {
    return "alpha and beta must be non-negative";
  }
  if (netlist_.total_size() > topology_.total_capacity()) {
    return "total component size exceeds total capacity; no feasible "
           "assignment exists";
  }
  return {};
}

}  // namespace qbp
