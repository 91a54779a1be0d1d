// MCM/TCM deviation cost (paper Section 2.2.1).
//
// Given an initial manual assignment A_initial, the linear cost matrix
//
//   p_ij = s_j * D(i, A_initial(j))
//
// (D is the partitions' delay matrix: on a grid, the Manhattan distance
// between the two slots)
// makes PP(1, 0) the "minimum deviation re-assignment" problem: find a
// feasible assignment that moves components as little as possible, with
// larger components more expensive to move.
#pragma once

#include <span>

#include "partition/assignment.hpp"
#include "partition/topology.hpp"
#include "sparse/dense.hpp"

namespace qbp {

/// Build the M x N deviation-cost matrix from an initial assignment.
/// Distances are the topology's delays D: for a grid, exactly the
/// Manhattan slot distance.
[[nodiscard]] Matrix<double> deviation_cost_matrix(
    const PartitionTopology& topology, std::span<const double> sizes,
    const Assignment& initial);

/// Total deviation of `current` from `initial` (equals
/// linear_cost(deviation_cost_matrix(...), current)).
[[nodiscard]] double total_deviation(const PartitionTopology& topology,
                                     std::span<const double> sizes,
                                     const Assignment& initial,
                                     const Assignment& current);

/// Number of components whose partition differs between the two assignments.
[[nodiscard]] std::int32_t components_moved(const Assignment& initial,
                                            const Assignment& current);

}  // namespace qbp
