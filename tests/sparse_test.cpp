#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "test_support.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

// ---------------------------------------------------------------- Csr ----

/// Merge rules for Triplet pairs that meet at one entry: values add, or
/// the least is kept.
constexpr auto add_values = [](auto& kept, const auto& other) {
  kept.value += other.value;
};
constexpr auto keep_least = [](auto& kept, const auto& other) {
  kept.value = std::min(kept.value, other.value);
};

Csr<int> make_example() {
  // 4 x 4, symmetric, from the pairs (0,1)=1, (0,3)=2, (2,3)=3:
  //   [ 0 1 0 2 ]
  //   [ 1 0 0 0 ]
  //   [ 0 0 0 3 ]
  //   [ 2 0 3 0 ]
  std::vector<Triplet<int>> pairs{{0, 1, 1}, {0, 3, 2}, {2, 3, 3}};
  return Csr<int>::from_symmetric_pairs(4, pairs, add_values);
}

TEST(Csr, ShapeAndNonzeros) {
  const auto matrix = make_example();
  EXPECT_EQ(matrix.rows(), 4);
  EXPECT_EQ(matrix.cols(), 4);
  EXPECT_EQ(matrix.nonzeros(), 6u);
}

TEST(Csr, RowAccessSortedByColumn) {
  // Row 2 takes two columns from below the diagonal and two from above.
  std::vector<Triplet<int>> pairs{{0, 2, 5}, {1, 2, 6}, {2, 3, 7}, {2, 4, 8}};
  const auto matrix = Csr<int>::from_symmetric_pairs(5, pairs, add_values);
  const auto cols = matrix.row_indices(2);
  ASSERT_EQ(cols.size(), 4u);
  EXPECT_EQ(cols[0], 0);
  EXPECT_EQ(cols[1], 1);
  EXPECT_EQ(cols[2], 3);
  EXPECT_EQ(cols[3], 4);
  const auto values = matrix.row_values(2);
  EXPECT_EQ(values[0], 5);
  EXPECT_EQ(values[1], 6);
  EXPECT_EQ(values[2], 7);
  EXPECT_EQ(values[3], 8);
}

TEST(Csr, ValueOrFallback) {
  const auto matrix = make_example();
  EXPECT_EQ(matrix.value_or(0, 1, -1), 1);
  EXPECT_EQ(matrix.value_or(1, 0, -1), 1);
  EXPECT_EQ(matrix.value_or(3, 2, -1), 3);
  EXPECT_EQ(matrix.value_or(0, 0, -1), -1);
  EXPECT_EQ(matrix.value_or(1, 2, -1), -1);
}

TEST(Csr, EmptyRows) {
  std::vector<Triplet<int>> pairs{{0, 1, 1}};
  const auto matrix = Csr<int>::from_symmetric_pairs(3, pairs, add_values);
  EXPECT_EQ(matrix.row_indices(0).size(), 1u);
  EXPECT_TRUE(matrix.row_indices(2).empty());
}

TEST(Csr, Sum) {
  std::vector<Triplet<double>> pairs{{0, 1, 1.5}, {1, 2, -2.5}};
  const auto matrix = Csr<double>::from_symmetric_pairs(3, pairs, add_values);
  EXPECT_DOUBLE_EQ(matrix.sum(), -2.0);  // each pair stored twice
}

TEST(Csr, ForEachVisitsAllEntriesInRowMajorOrder) {
  const auto matrix = make_example();
  std::vector<std::pair<int, int>> visited;
  matrix.for_each([&](std::int32_t r, std::int32_t c, int) {
    visited.emplace_back(r, c);
  });
  const std::vector<std::pair<int, int>> expected{{0, 1}, {0, 3}, {1, 0},
                                                  {2, 3}, {3, 0}, {3, 2}};
  EXPECT_EQ(visited, expected);
}

TEST(Csr, EmptyMatrix) {
  std::vector<Triplet<int>> none;
  const auto matrix = Csr<int>::from_symmetric_pairs(0, none, add_values);
  EXPECT_EQ(matrix.rows(), 0);
  EXPECT_EQ(matrix.nonzeros(), 0u);
  EXPECT_EQ(matrix.sum(), 0);
}

TEST(Csr, LargeRandomRoundTrip) {
  // Distinct random pairs in canonical order go in; the upper triangle
  // gives them back in the same order and the lower one mirrors them.
  Rng rng(77);
  std::vector<Triplet<double>> pairs;
  for (int k = 0; k < 500; ++k) {
    auto a = static_cast<std::int32_t>(rng.next_below(40));
    auto b = static_cast<std::int32_t>(rng.next_below(40));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    pairs.push_back({a, b, rng.next_double(0.1, 2.0)});
  }
  std::sort(pairs.begin(), pairs.end(), [](const auto& x, const auto& y) {
    return x.row != y.row ? x.row < y.row : x.col < y.col;
  });
  pairs.erase(std::unique(pairs.begin(), pairs.end(),
                          [](const auto& x, const auto& y) {
                            return x.row == y.row && x.col == y.col;
                          }),
              pairs.end());
  const std::vector<Triplet<double>> canonical = pairs;
  const auto matrix = Csr<double>::from_symmetric_pairs(40, pairs, add_values);
  EXPECT_EQ(pairs, canonical);
  ASSERT_EQ(matrix.nonzeros(), 2 * pairs.size());
  std::vector<Triplet<double>> upper;
  matrix.for_each([&](std::int32_t r, std::int32_t c, double v) {
    if (r < c) upper.push_back({r, c, v});
    EXPECT_EQ(matrix.value_or(c, r, -1.0), v);
  });
  EXPECT_EQ(upper, pairs);
}

TEST(Csr, RejectsPairsOutOfOrderOrRange) {
  // A pair's own endpoints must be in upper-triangle order and in range;
  // the list itself may come in any order, with duplicates (see below).
  const test::FailModeGuard guard(check::FailMode::kThrow);
  const std::vector<std::vector<Triplet<int>>> bad{
      {{1, 0, 1}},             // lower triangle
      {{0, 0, 1}},             // diagonal
      {{0, 3, 1}},             // column outside [0, 3)
      {{-1, 1, 1}},            // negative row
      {{0, 1, 1}, {2, 1, 1}},  // a later pair out of order
  };
  for (auto pairs : bad) {
    EXPECT_THROW((void)Csr<int>::from_symmetric_pairs(3, pairs, add_values),
                 ContractViolation);
  }
}

TEST(Csr, MergesUnsortedPairsByTheRule) {
  const std::vector<Triplet<int>> pairs{
      {1, 2, 4}, {0, 2, 1}, {0, 1, 2}, {1, 2, 3}, {0, 2, 5}};
  std::vector<Triplet<int>> summed = pairs;
  std::vector<Triplet<int>> least_kept = pairs;
  const auto sum = Csr<int>::from_symmetric_pairs(3, summed, add_values);
  const auto least = Csr<int>::from_symmetric_pairs(3, least_kept, keep_least);
  // The lists come back merged and in canonical order.
  EXPECT_EQ(summed,
            (std::vector<Triplet<int>>{{0, 1, 2}, {0, 2, 6}, {1, 2, 7}}));
  EXPECT_EQ(least_kept,
            (std::vector<Triplet<int>>{{0, 1, 2}, {0, 2, 1}, {1, 2, 3}}));
  EXPECT_EQ(sum.nonzeros(), 6u);
  EXPECT_EQ(sum.value_or(0, 2, -1), 6);
  EXPECT_EQ(sum.value_or(2, 1, -1), 7);
  EXPECT_EQ(least.value_or(2, 0, -1), 1);
  EXPECT_EQ(least.value_or(1, 2, -1), 3);
  EXPECT_EQ(least.value_or(0, 1, -1), 2);
  const auto row = sum.row_indices(2);
  EXPECT_EQ(std::vector<std::int32_t>(row.begin(), row.end()),
            (std::vector<std::int32_t>{0, 1}));
}

// -------------------------------------------------------- one builder ----
//
// Netlist and TimingConstraints build A and Dc one way: order the pairs,
// merge duplicates, fill.  Random pair lists with duplicates and both
// orientations, N from 0 to 64, against a dense symmetric reference.

/// A random unordered pair of distinct components in [0, n), in a random
/// orientation; one draw in three repeats an earlier pair (reversed).
std::pair<std::int32_t, std::int32_t> draw_pair(
    Rng& rng, std::int32_t n,
    std::vector<std::pair<std::int32_t, std::int32_t>>& drawn) {
  if (!drawn.empty() && rng.next_below(3) == 0) {
    const auto& [a, b] = drawn[rng.next_below(drawn.size())];
    return {b, a};
  }
  const auto a = static_cast<std::int32_t>(rng.next_below(n));
  auto b = static_cast<std::int32_t>(rng.next_below(n - 1));
  if (b >= a) ++b;
  drawn.emplace_back(a, b);
  return {a, b};
}

/// `matrix` stores exactly the entries `present` marks, with `dense`'s
/// values, and every row's columns strictly ascend.
template <typename T>
void expect_matches_dense(const Csr<T>& matrix, std::int32_t n,
                          const std::vector<bool>& present,
                          const std::vector<T>& dense) {
  ASSERT_EQ(matrix.rows(), n);
  ASSERT_EQ(matrix.cols(), n);
  std::vector<bool> stored(present.size(), false);
  for (std::int32_t r = 0; r < n; ++r) {
    const auto cols = matrix.row_indices(r);
    const auto values = matrix.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(cols[k - 1], cols[k]) << "row " << r;
      }
      const auto at = static_cast<std::size_t>(r) * static_cast<std::size_t>(n) +
                      static_cast<std::size_t>(cols[k]);
      EXPECT_TRUE(present[at]) << r << ", " << cols[k];
      EXPECT_EQ(values[k], dense[at]) << r << ", " << cols[k];
      stored[at] = true;
    }
  }
  EXPECT_EQ(stored, present);
}

TEST(OneBuilder, NetlistMatchesDenseReference) {
  Rng rng(2024);
  for (std::int32_t n = 0; n <= 64; ++n) {
    SCOPED_TRACE(n);
    const auto cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    std::vector<std::int32_t> dense(cells, 0);
    std::vector<bool> present(cells, false);
    Netlist netlist;
    for (std::int32_t j = 0; j < n; ++j) netlist.add_component("c", 1.0);
    std::vector<std::pair<std::int32_t, std::int32_t>> drawn;
    for (std::int32_t k = 0; n >= 2 && k < 3 * n; ++k) {
      const auto [a, b] = draw_pair(rng, n, drawn);
      const auto wires = static_cast<std::int32_t>(rng.next_int(1, 5));
      netlist.add_wires(a, b, wires);
      for (const auto at : {static_cast<std::size_t>(a * n + b),
                            static_cast<std::size_t>(b * n + a)}) {
        dense[at] += wires;
        present[at] = true;
      }
    }
    netlist.finalize();
    expect_matches_dense(netlist.connection_matrix(), n, present, dense);
    std::vector<WireBundle> upper;
    for (std::int32_t a = 0; a < n; ++a) {
      for (std::int32_t b = a + 1; b < n; ++b) {
        if (present[static_cast<std::size_t>(a * n + b)]) {
          upper.push_back({a, b, dense[static_cast<std::size_t>(a * n + b)]});
        }
      }
    }
    EXPECT_EQ(netlist.bundles(), upper);
  }
}

TEST(OneBuilder, TimingMatchesDenseReference) {
  Rng rng(4048);
  for (std::int32_t n = 0; n <= 64; ++n) {
    SCOPED_TRACE(n);
    const auto cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    std::vector<double> dense(cells, TimingConstraints::kUnconstrained);
    std::vector<bool> present(cells, false);
    TimingConstraints timing(n);
    std::vector<std::pair<std::int32_t, std::int32_t>> drawn;
    for (std::int32_t k = 0; n >= 2 && k < 3 * n; ++k) {
      const auto [a, b] = draw_pair(rng, n, drawn);
      const double bound = 0.5 * static_cast<double>(rng.next_below(10));
      timing.add(a, b, bound);
      for (const auto at : {static_cast<std::size_t>(a * n + b),
                            static_cast<std::size_t>(b * n + a)}) {
        dense[at] = std::min(dense[at], bound);
        present[at] = true;
      }
    }
    timing.finalize();
    expect_matches_dense(timing.matrix(), n, present, dense);
    EXPECT_EQ(timing.count(),
              std::count(present.begin(), present.end(), true) / 2);
    for (std::int32_t a = 0; a < n; ++a) {
      for (std::int32_t b = 0; b < n; ++b) {
        EXPECT_EQ(timing.max_delay(a, b),
                  dense[static_cast<std::size_t>(a * n + b)]);
      }
    }
  }
}

/// The `std::sort` + merge reference of a pair list: sorted by (row, col),
/// each pair's values merged in order of appearance.
template <typename T, typename Merge>
std::vector<Triplet<T>> sort_and_merge(std::vector<Triplet<T>> pairs,
                                       Merge merge) {
  std::stable_sort(pairs.begin(), pairs.end(), [](const auto& x, const auto& y) {
    return x.row != y.row ? x.row < y.row : x.col < y.col;
  });
  std::vector<Triplet<T>> merged;
  for (const Triplet<T>& p : pairs) {
    if (!merged.empty() && merged.back().row == p.row &&
        merged.back().col == p.col) {
      merged.back().value = merge(merged.back().value, p.value);
    } else {
      merged.push_back(p);
    }
  }
  return merged;
}

/// `matrix` holds exactly `merged` (canonical) and its mirror, each row
/// ascending: rebuilt from the merged list one row at a time.
template <typename T>
void expect_rows_of(const Csr<T>& matrix, std::int32_t n,
                    const std::vector<Triplet<T>>& merged) {
  std::vector<std::vector<std::pair<std::int32_t, T>>> rows(
      static_cast<std::size_t>(n));
  for (const Triplet<T>& p : merged) {
    rows[static_cast<std::size_t>(p.row)].emplace_back(p.col, p.value);
    rows[static_cast<std::size_t>(p.col)].emplace_back(p.row, p.value);
  }
  ASSERT_EQ(matrix.rows(), n);
  ASSERT_EQ(matrix.nonzeros(), 2 * merged.size());
  for (std::int32_t r = 0; r < n; ++r) {
    auto& expected = rows[static_cast<std::size_t>(r)];
    std::sort(expected.begin(), expected.end());
    const auto cols = matrix.row_indices(r);
    const auto values = matrix.row_values(r);
    std::vector<std::pair<std::int32_t, T>> actual;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      actual.emplace_back(cols[k], values[k]);
    }
    EXPECT_EQ(actual, expected) << "row " << r;
  }
}

TEST(OneBuilder, FinalizeMatchesSortAndMerge) {
  // Unsorted bundles and timing pairs, a third of them repeats (in either
  // orientation), and a hub component wired to half the others, against
  // std::sort + merge; N up to 2,000 so rows hold hundreds of entries.
  Rng rng(9041);
  for (const std::int32_t n : {2, 3, 17, 300, 2000}) {
    SCOPED_TRACE(n);
    Netlist netlist;
    for (std::int32_t j = 0; j < n; ++j) netlist.add_component("c", 1.0);
    TimingConstraints timing(n);
    std::vector<Triplet<std::int32_t>> wires;
    std::vector<Triplet<double>> bounds;
    std::vector<std::pair<std::int32_t, std::int32_t>> drawn;
    const std::int32_t hub = n / 2;
    for (std::int32_t k = 0; k < 4 * n; ++k) {
      auto [a, b] = draw_pair(rng, n, drawn);
      if (k % 2 == 0 && a != hub && b != hub) b = hub;
      const auto count = static_cast<std::int32_t>(rng.next_int(1, 9));
      const double bound = 0.25 * static_cast<double>(rng.next_below(40));
      netlist.add_wires(a, b, count);
      timing.add(a, b, bound);
      wires.push_back({std::min(a, b), std::max(a, b), count});
      bounds.push_back({std::min(a, b), std::max(a, b), bound});
    }
    netlist.finalize();
    timing.finalize();
    const auto merged_wires = sort_and_merge(wires, std::plus<>{});
    const auto merged_bounds = sort_and_merge(
        bounds, [](double x, double y) { return std::min(x, y); });
    std::vector<Triplet<std::int32_t>> bundles;
    for (const WireBundle& bundle : netlist.bundles()) {
      bundles.push_back({bundle.a, bundle.b, bundle.multiplicity});
    }
    EXPECT_EQ(bundles, merged_wires);
    expect_rows_of(netlist.connection_matrix(), n, merged_wires);
    std::vector<Triplet<double>> upper;
    timing.matrix().for_each([&](std::int32_t r, std::int32_t c, double v) {
      if (r < c) upper.push_back({r, c, v});
    });
    EXPECT_EQ(upper, merged_bounds);
    EXPECT_EQ(timing.count(), static_cast<std::int64_t>(merged_bounds.size()));
    expect_rows_of(timing.matrix(), n, merged_bounds);
    // A second finalize after more adds merges into the first's result.
    if (n >= 3) {
      netlist.add_wires(1, 0, 2);
      timing.add(0, 2, 0.0);
      wires.push_back({0, 1, 2});
      bounds.push_back({0, 2, 0.0});
      netlist.finalize();
      timing.finalize();
      expect_rows_of(netlist.connection_matrix(), n,
                     sort_and_merge(wires, std::plus<>{}));
      expect_rows_of(timing.matrix(), n,
                     sort_and_merge(bounds, [](double x, double y) {
                       return std::min(x, y);
                     }));
    }
  }
}

// ------------------------------------------------------------- Matrix ----

TEST(Matrix, ConstructionAndIndexing) {
  Matrix<double> matrix(2, 3, 1.5);
  EXPECT_EQ(matrix.rows(), 2);
  EXPECT_EQ(matrix.cols(), 3);
  EXPECT_DOUBLE_EQ(matrix(1, 2), 1.5);
  matrix(1, 2) = -4.0;
  EXPECT_DOUBLE_EQ(matrix(1, 2), -4.0);
}

TEST(Matrix, FromRows) {
  const auto matrix = Matrix<int>::from_rows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(matrix.rows(), 3);
  EXPECT_EQ(matrix.cols(), 2);
  EXPECT_EQ(matrix(2, 1), 6);
}

TEST(Matrix, RowSpanWritesThrough) {
  Matrix<int> matrix(2, 2, 0);
  auto row = matrix.row(1);
  row[0] = 9;
  EXPECT_EQ(matrix(1, 0), 9);
}

TEST(Matrix, Fill) {
  Matrix<int> matrix(2, 2, 1);
  matrix.fill(7);
  EXPECT_EQ(matrix(0, 0), 7);
  EXPECT_EQ(matrix(1, 1), 7);
}

TEST(Matrix, Transposed) {
  const auto matrix = Matrix<int>::from_rows({{1, 2, 3}, {4, 5, 6}});
  const auto t = matrix.transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_EQ(t(2, 1), 6);
  EXPECT_EQ(t(0, 0), 1);
}

TEST(Matrix, IsSymmetric) {
  EXPECT_TRUE(Matrix<int>::from_rows({{0, 1}, {1, 0}}).is_symmetric());
  EXPECT_FALSE(Matrix<int>::from_rows({{0, 1}, {2, 0}}).is_symmetric());
  EXPECT_FALSE(Matrix<int>::from_rows({{0, 1, 2}, {1, 0, 3}}).is_symmetric());
}

TEST(Matrix, EqualityAndEmpty) {
  const Matrix<int> a(2, 2, 1);
  const Matrix<int> b(2, 2, 1);
  Matrix<int> c(2, 2, 1);
  c(0, 1) = 2;
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(Matrix<int>().empty());
  EXPECT_FALSE(a.empty());
}

}  // namespace
}  // namespace qbp
