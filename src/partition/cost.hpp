// Cost evaluation for assignments: the two terms of the paper's objective
//
//   minimize  alpha * SUM p_ij x_ij  +  beta * SUM a_{j1 j2} b_{i1 i2} x_{i1 j1} x_{i2 j2}
//
// Conventions.  The netlist stores physical (undirected) wire bundles while
// the paper's A matrix is symmetric, so the quadratic double sum over
// *ordered* pairs counts every bundle twice: quadratic_cost == 2 * wirelength
// whenever B is symmetric.  The experiment tables report `wirelength`
// (each wire counted once, as a human reads "total Manhattan wire length");
// the solvers optimize the quadratic form -- the two differ by a constant
// factor and have identical minimizers.
#pragma once

#include <span>

#include "netlist/netlist.hpp"
#include "partition/assignment.hpp"
#include "partition/topology.hpp"
#include "sparse/dense.hpp"

namespace qbp {

/// SUM over unordered bundles of multiplicity * B(part(a), part(b)).
/// This is the "cost (total Manhattan wire length)" column of Tables II/III
/// when B is the Manhattan metric.  Precondition: assignment is complete.
[[nodiscard]] double wirelength(const Netlist& netlist,
                                const PartitionTopology& topology,
                                const Assignment& assignment);

/// The paper's quadratic term over ordered pairs:
/// SUM_{j1, j2} a_{j1 j2} * b_{part(j1) part(j2)}.
[[nodiscard]] double quadratic_cost(const Netlist& netlist,
                                    const PartitionTopology& topology,
                                    const Assignment& assignment);

/// The paper's linear term SUM_j p_{part(j), j}; `linear_cost(P, A)` with an
/// empty P (0 x 0) is 0.
[[nodiscard]] double linear_cost(const Matrix<double>& p,
                                 const Assignment& assignment);

/// alpha * linear + beta * quadratic.
[[nodiscard]] double objective(const Netlist& netlist,
                               const PartitionTopology& topology,
                               const Matrix<double>& p, double alpha, double beta,
                               const Assignment& assignment);

}  // namespace qbp
