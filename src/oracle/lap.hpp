// Linear Assignment Problem (paper Section 2.2.2 special case).
//
// Exact O(n^3) solver via shortest augmenting paths with dual potentials
// (Jonker-Volgenant / "Hungarian" family).  In Burkard's original heuristic
// the two inner subproblems of STEP 4 / STEP 6 are LAPs; here they are GAPs
// (assign/gap.hpp), and this solver is the exact reference that tests hold
// the LAP reduction (oracle/special_cases.hpp) and presolve against.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/dense.hpp"

namespace qbp {

struct LapResult {
  /// column assigned to each row; size = cost.rows().
  std::vector<std::int32_t> col_of_row;
  /// row assigned to each column, or -1 for unmatched columns.
  std::vector<std::int32_t> row_of_col;
  double cost = 0.0;
};

/// Minimize sum_r cost(r, col_of_row[r]) over injective row->column maps.
/// Requires rows() <= cols(); every row is matched.
[[nodiscard]] LapResult solve_lap(const Matrix<double>& cost);

}  // namespace qbp
