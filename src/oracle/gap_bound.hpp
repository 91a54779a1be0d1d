// A yardstick for the GAP heuristic (assign/gap.hpp) on instances too
// large to enumerate.
#pragma once

#include <cstdint>

#include "assign/gap.hpp"

namespace qbp {

/// Lagrangian lower bound on the GAP optimum (Jornsten & Nasberg style):
/// relax the capacity constraints with multipliers lambda_i >= 0,
///
///   L(lambda) = sum_j min_i (c_ij + lambda_i * s_j) - sum_i lambda_i * cap_i,
///
/// and maximize by projected subgradient ascent.  Every L(lambda) is a
/// valid bound; the best over `iterations` steps is returned.
[[nodiscard]] double gap_lower_bound(const GapProblem& problem,
                                     std::int32_t iterations = 60);

}  // namespace qbp
