// The partitioning problem PP(alpha, beta) (paper Section 2.1).
//
// Aggregates every input of the formulation:
//   circuit side:    netlist (components J with sizes s_j, wires A),
//                    timing constraints Dc;
//   partition side:  topology (capacities c_i, wire costs B, delays D);
//   linear term:     M x N assignment-preference matrix P (may be empty);
//   scaling:         alpha (linear term), beta (quadratic term).
//
// Also owns the flat index convention of Section 3.1: the binary matrix
// [x_ij] is flattened column-by-column into a vector y of length M*N with
//
//   r = i + j * M      (0-based; the paper writes r = i + (j-1)M, 1-based)
//
// so that y_r = x_ij.  flat_index / partition_of / component_of implement
// the bijection.  Q-hat itself is never built (Section 4.3): a solve needs
// only its quadratic form y^T Qhat y, which penalized_value computes next
// to the true objective.  The entry-level Q-hat of the Section 3.3 example
// is a test reference (oracle/qhat.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "netlist/netlist.hpp"
#include "partition/assignment.hpp"
#include "partition/topology.hpp"
#include "sparse/dense.hpp"
#include "timing/constraints.hpp"

namespace qbp {

/// The paper's experimental penalty (Section 3.2: "In experiments we set
/// q-hat = 50 ... high enough for the optimization procedure to 'reject'
/// any timing violating assignments").  Theorem 2: any positive value
/// works when the minimizer found is violation-free.
inline constexpr double kPaperPenalty = 50.0;

class PartitionProblem {
 public:
  PartitionProblem()
      : PartitionProblem(Netlist{}, PartitionTopology{}, TimingConstraints{}) {}

  /// P may be empty (0 x 0) when there is no linear term.  Finalizes the
  /// netlist and the timing constraints, so a constructed problem is
  /// immutable: every const member only reads, and one problem is safe to
  /// share across threads.
  PartitionProblem(Netlist netlist, PartitionTopology topology,
                   TimingConstraints timing, Matrix<double> p = {},
                   double alpha = 1.0, double beta = 1.0);

  [[nodiscard]] const Netlist& netlist() const noexcept { return netlist_; }
  [[nodiscard]] const PartitionTopology& topology() const noexcept {
    return topology_;
  }
  [[nodiscard]] const TimingConstraints& timing() const noexcept { return timing_; }
  [[nodiscard]] const Matrix<double>& linear_cost_matrix() const noexcept {
    return p_;
  }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] double beta() const noexcept { return beta_; }

  [[nodiscard]] std::int32_t num_components() const noexcept {
    return netlist_.num_components();
  }
  [[nodiscard]] std::int32_t num_partitions() const noexcept {
    return topology_.num_partitions();
  }
  /// Length of the flattened solution vector y (MN).
  [[nodiscard]] std::int64_t flat_size() const noexcept {
    return static_cast<std::int64_t>(num_components()) * num_partitions();
  }

  /// Linear cost p_ij (0 when P is empty).
  [[nodiscard]] double linear_cost(PartitionId i, std::int32_t j) const noexcept {
    return p_.empty() ? 0.0 : p_(i, j);
  }

  // --- Section 3.1 flattening -------------------------------------------
  [[nodiscard]] std::int64_t flat_index(PartitionId i, std::int32_t j) const noexcept {
    return static_cast<std::int64_t>(i) +
           static_cast<std::int64_t>(j) * num_partitions();
  }
  [[nodiscard]] PartitionId partition_of(std::int64_t r) const noexcept {
    return static_cast<PartitionId>(r % num_partitions());
  }
  [[nodiscard]] std::int32_t component_of(std::int64_t r) const noexcept {
    return static_cast<std::int32_t>(r / num_partitions());
  }

  // --- constraints --------------------------------------------------------
  /// C1 for a complete assignment.
  [[nodiscard]] bool satisfies_capacity(const Assignment& assignment) const;
  /// C2 for a complete assignment.
  [[nodiscard]] bool satisfies_timing(const Assignment& assignment) const;
  /// C1 and C2 (C3 is implied by completeness).
  [[nodiscard]] bool is_feasible(const Assignment& assignment) const;

  /// The true objective alpha * linear + beta * quadratic (no penalties).
  [[nodiscard]] double objective(const Assignment& assignment) const;

  /// y^T Qhat y for the y vector of a complete assignment: the objective,
  /// with each ordered timing-violating pair's wire term replaced by
  /// `penalty` (Section 3.2; must be positive).  O(bundles + constraints),
  /// never O((MN)^2).  On a violation-free assignment it equals objective()
  /// bit for bit.
  [[nodiscard]] double penalized_value(const Assignment& assignment,
                                       double penalty) const;

  /// Reported wirelength metric (each wire counted once); the tables'
  /// "cost" column.
  [[nodiscard]] double wirelength(const Assignment& assignment) const;

  // --- Section 3 scaling ---------------------------------------------------
  /// The equivalent PP(1, 1) instance: P' = alpha * P folded in, B' = beta *
  /// B folded in (scaling B is equivalent to scaling A and keeps wire
  /// multiplicities integral).  Timing constraints and capacities unchanged.
  [[nodiscard]] PartitionProblem normalized() const;

  /// Copy with the quadratic term disabled (B = 0): the instance used to
  /// produce initial feasible solutions ("use QBP algorithm with matrix B
  /// set to all zeros", Section 5).
  [[nodiscard]] PartitionProblem with_zero_wire_cost() const;

  /// Copy with all timing constraints dropped (Table II's relaxed setting).
  [[nodiscard]] PartitionProblem without_timing() const;

  /// Structural validation of all inputs; empty string when consistent.
  [[nodiscard]] std::string validate() const;

 private:
  Netlist netlist_;
  PartitionTopology topology_;
  TimingConstraints timing_;
  Matrix<double> p_;
  double alpha_ = 1.0;
  double beta_ = 1.0;
};

}  // namespace qbp
