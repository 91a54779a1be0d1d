#include "oracle/lap.hpp"

#include <limits>

#include "util/check.hpp"

namespace qbp {

LapResult solve_lap(const Matrix<double>& cost) {
  const std::int32_t n = cost.rows();
  const std::int32_t m = cost.cols();
  QBP_CHECK_LE(n, m) << "solve_lap requires rows() <= cols()";
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // 1-based arrays in the classic formulation: p[j] = row matched to
  // column j (0 = free), u/v = dual potentials.
  std::vector<double> u(static_cast<std::size_t>(n) + 1, 0.0);
  std::vector<double> v(static_cast<std::size_t>(m) + 1, 0.0);
  std::vector<std::int32_t> p(static_cast<std::size_t>(m) + 1, 0);
  std::vector<std::int32_t> way(static_cast<std::size_t>(m) + 1, 0);

  for (std::int32_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::int32_t j0 = 0;
    std::vector<double> minv(static_cast<std::size_t>(m) + 1, kInf);
    std::vector<bool> used(static_cast<std::size_t>(m) + 1, false);
    do {
      used[static_cast<std::size_t>(j0)] = true;
      const std::int32_t i0 = p[static_cast<std::size_t>(j0)];
      double delta = kInf;
      std::int32_t j1 = -1;
      for (std::int32_t j = 1; j <= m; ++j) {
        if (used[static_cast<std::size_t>(j)]) continue;
        const double reduced = cost(i0 - 1, j - 1) -
                               u[static_cast<std::size_t>(i0)] -
                               v[static_cast<std::size_t>(j)];
        if (reduced < minv[static_cast<std::size_t>(j)]) {
          minv[static_cast<std::size_t>(j)] = reduced;
          way[static_cast<std::size_t>(j)] = j0;
        }
        if (minv[static_cast<std::size_t>(j)] < delta) {
          delta = minv[static_cast<std::size_t>(j)];
          j1 = j;
        }
      }
      QBP_DCHECK(j1 != -1) << "augmenting path search exhausted all columns";
      for (std::int32_t j = 0; j <= m; ++j) {
        if (used[static_cast<std::size_t>(j)]) {
          u[static_cast<std::size_t>(p[static_cast<std::size_t>(j)])] += delta;
          v[static_cast<std::size_t>(j)] -= delta;
        } else {
          minv[static_cast<std::size_t>(j)] -= delta;
        }
      }
      j0 = j1;
    } while (p[static_cast<std::size_t>(j0)] != 0);
    // Unwind the augmenting path.
    do {
      const std::int32_t j1 = way[static_cast<std::size_t>(j0)];
      p[static_cast<std::size_t>(j0)] = p[static_cast<std::size_t>(j1)];
      j0 = j1;
    } while (j0 != 0);
  }

  LapResult result;
  result.col_of_row.assign(static_cast<std::size_t>(n), -1);
  result.row_of_col.assign(static_cast<std::size_t>(m), -1);
  for (std::int32_t j = 1; j <= m; ++j) {
    const std::int32_t i = p[static_cast<std::size_t>(j)];
    if (i > 0) {
      result.col_of_row[static_cast<std::size_t>(i - 1)] = j - 1;
      result.row_of_col[static_cast<std::size_t>(j - 1)] = i - 1;
    }
  }
  result.cost = 0.0;
  for (std::int32_t i = 0; i < n; ++i) {
    result.cost += cost(i, result.col_of_row[static_cast<std::size_t>(i)]);
  }
  return result;
}

}  // namespace qbp
