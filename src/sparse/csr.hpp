// Compressed-sparse-row matrix.
//
// This is the backbone of the paper's Section 4.3 speedup: the MN x MN cost
// matrix Q-hat is never materialized; instead the connection matrix A and
// the timing-constraint matrix Dc are stored in CSR form, and what a solve
// needs of Q-hat is computed from them (PartitionProblem::penalized_value,
// core/delta_evaluator.hpp's incident rows).  For a circuit like cktf
// (N=607, M=16) the dense Q-hat would hold (MN)^2 ~ 94 million entries while
// the CSR inputs hold a few thousand.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace qbp {

/// One stored entry of a sparse matrix (row-major triplet).
template <typename T>
struct Triplet {
  std::int32_t row = 0;
  std::int32_t col = 0;
  T value{};

  friend bool operator==(const Triplet&, const Triplet&) = default;
};

template <typename T>
class Csr {
 public:
  Csr() = default;

  /// Build the symmetric n x n matrix S from `pairs`, each read as the
  /// Triplet<T> p = as_triplet(pair) with 0 <= p.row < p.col < n (checked;
  /// a violation is a contract failure), and leave `pairs` merged and in
  /// canonical order, strictly ascending by (row, col): S[p.row][p.col] =
  /// S[p.col][p.row] = p.value for each.  Pairs may come in any order, and
  /// pairs that meet at one entry fold into the first kept one with
  /// merge(kept, other).  This is the one builder: Netlist::finalize()
  /// (wires add) and TimingConstraints::finalize() (bounds keep the
  /// minimum) hand their pair lists here.  The pairs are ordered in place:
  /// a counting pass sizes one bucket per row, a second moves every pair
  /// into its bucket by swaps, and a bucket that is not ascending by column
  /// is sorted, O(k log k) for k pairs; the whole build is O(n + pairs) plus
  /// those sorts, and it allocates nothing the size of the pair list, only
  /// two O(n) arrays and the matrix itself.  Every row's columns come out
  /// strictly ascending; a stored T{} is kept (a zero-slack timing bound
  /// means something).
  template <typename Pair, typename Merge, typename AsTriplet = std::identity>
  static Csr from_symmetric_pairs(std::int32_t n, std::vector<Pair>& pairs,
                                  Merge merge, AsTriplet as_triplet = {});

  [[nodiscard]] std::int32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::int32_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nonzeros() const noexcept { return values_.size(); }

  /// Column indices of stored entries in `row`, ascending.
  [[nodiscard]] std::span<const std::int32_t> row_indices(std::int32_t row) const noexcept {
    QBP_DCHECK(row >= 0 && row < rows_);
    return {col_index_.data() + row_start_[row],
            static_cast<std::size_t>(row_start_[row + 1] - row_start_[row])};
  }

  /// Values of stored entries in `row`, parallel to row_indices().
  [[nodiscard]] std::span<const T> row_values(std::int32_t row) const noexcept {
    QBP_DCHECK(row >= 0 && row < rows_);
    return {values_.data() + row_start_[row],
            static_cast<std::size_t>(row_start_[row + 1] - row_start_[row])};
  }

  /// Stored value at (row, col), or `fallback` when the entry is absent.
  [[nodiscard]] T value_or(std::int32_t row, std::int32_t col, T fallback) const noexcept {
    const auto cols_span = row_indices(row);
    const auto it = std::lower_bound(cols_span.begin(), cols_span.end(), col);
    if (it == cols_span.end() || *it != col) return fallback;
    return values_[static_cast<std::size_t>(
        row_start_[row] + (it - cols_span.begin()))];
  }

  /// Sum of all stored values.
  [[nodiscard]] T sum() const noexcept {
    T total{};
    for (const T& v : values_) total += v;
    return total;
  }

  /// Visit every stored entry as (row, col, value).
  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    for (std::int32_t r = 0; r < rows_; ++r) {
      for (std::int64_t k = row_start_[r]; k < row_start_[r + 1]; ++k) {
        visit(r, col_index_[static_cast<std::size_t>(k)],
              values_[static_cast<std::size_t>(k)]);
      }
    }
  }

  friend bool operator==(const Csr& a, const Csr& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
           a.row_start_ == b.row_start_ && a.col_index_ == b.col_index_ &&
           a.values_ == b.values_;
  }

 private:
  std::int32_t rows_ = 0;
  std::int32_t cols_ = 0;
  std::vector<std::int64_t> row_start_;  // size rows_+1
  std::vector<std::int32_t> col_index_;  // size nnz
  std::vector<T> values_;                // size nnz
};

/// A walk over one ascending CSR row (its column indices and values) for a
/// caller that asks for columns in ascending order: value_at(column,
/// fallback) returns what Csr::value_or does, and contains(column) whether
/// the row stores it, each in amortized O(1) instead of a binary search,
/// since the cursor only moves forward.
template <typename T>
class RowCursor {
 public:
  RowCursor(std::span<const std::int32_t> columns, std::span<const T> values)
      : columns_(columns), values_(values) {}

  [[nodiscard]] bool contains(std::int32_t column) noexcept {
    while (at_ < columns_.size() && columns_[at_] < column) ++at_;
    return at_ < columns_.size() && columns_[at_] == column;
  }
  [[nodiscard]] T value_at(std::int32_t column, T fallback) noexcept {
    return contains(column) ? values_[at_] : fallback;
  }

 private:
  std::span<const std::int32_t> columns_;
  std::span<const T> values_;
  std::size_t at_ = 0;
};

template <typename T>
template <typename Pair, typename Merge, typename AsTriplet>
Csr<T> Csr<T>::from_symmetric_pairs(std::int32_t n, std::vector<Pair>& pairs,
                                    Merge merge, AsTriplet as_triplet) {
  QBP_CHECK(n >= 0) << "Csr shape must be non-negative (" << n << " x " << n
                    << ")";
  const auto row_of = [&](const Pair& pair) { return as_triplet(pair).row; };
  const auto col_of = [&](const Pair& pair) { return as_triplet(pair).col; };

  // Bucket the pairs by row in place: bucket r is [start[r], start[r + 1]),
  // and every swap moves one pair into its own bucket for good.
  std::vector<std::int64_t> start(static_cast<std::size_t>(n) + 1, 0);
  for (const Pair& pair : pairs) {
    const Triplet<T> p = as_triplet(pair);
    QBP_CHECK(p.row >= 0 && p.row < p.col && p.col < n)
        << "pair (" << p.row << ", " << p.col
        << ") not upper-triangle in [0, " << n << ")";
    ++start[static_cast<std::size_t>(p.row) + 1];
  }
  for (std::int32_t r = 0; r < n; ++r) {
    start[static_cast<std::size_t>(r) + 1] += start[static_cast<std::size_t>(r)];
  }
  std::vector<std::int64_t> next(start.begin(), start.end() - 1);
  for (std::int32_t r = 0; r < n; ++r) {
    auto& at = next[static_cast<std::size_t>(r)];
    while (at < start[static_cast<std::size_t>(r) + 1]) {
      Pair& here = pairs[static_cast<std::size_t>(at)];
      const std::int32_t home = row_of(here);
      if (home == r) {
        ++at;
      } else {
        std::swap(here, pairs[static_cast<std::size_t>(
                            next[static_cast<std::size_t>(home)]++)]);
      }
    }
  }

  // Sort each bucket by column (only when it is not ascending already) and
  // fold its repeats; the kept pairs shift down, never past unread ones.
  const auto by_col = [&](const Pair& x, const Pair& y) {
    return col_of(x) < col_of(y);
  };
  std::size_t kept = 0;
  for (std::int32_t r = 0; r < n; ++r) {
    const auto first = pairs.begin() + start[static_cast<std::size_t>(r)];
    const auto last = pairs.begin() + start[static_cast<std::size_t>(r) + 1];
    if (!std::is_sorted(first, last, by_col)) std::sort(first, last, by_col);
    const std::size_t row_begin = kept;
    for (auto it = first; it != last; ++it) {
      if (kept > row_begin && col_of(pairs[kept - 1]) == col_of(*it)) {
        merge(pairs[kept - 1], *it);
      } else {
        if (pairs.begin() + static_cast<std::ptrdiff_t>(kept) != it) {
          pairs[kept] = std::move(*it);
        }
        ++kept;
      }
    }
  }
  pairs.resize(kept);

  // Fill from the canonical list.  Row j's columns below the diagonal all
  // come from pairs with col == j (their rows ascend with the pair order),
  // the columns above it from pairs with row == j (cols ascend likewise);
  // filling the lower half first keeps every row's column list ascending.
  Csr matrix;
  matrix.rows_ = n;
  matrix.cols_ = n;
  matrix.row_start_ = std::move(start);
  std::fill(matrix.row_start_.begin(), matrix.row_start_.end(), 0);
  for (const Pair& pair : pairs) {
    const Triplet<T> p = as_triplet(pair);
    ++matrix.row_start_[static_cast<std::size_t>(p.row) + 1];
    ++matrix.row_start_[static_cast<std::size_t>(p.col) + 1];
  }
  for (std::int32_t r = 0; r < n; ++r) {
    matrix.row_start_[static_cast<std::size_t>(r) + 1] +=
        matrix.row_start_[static_cast<std::size_t>(r)];
  }
  matrix.col_index_.resize(2 * pairs.size());
  matrix.values_.resize(2 * pairs.size());
  next.assign(matrix.row_start_.begin(), matrix.row_start_.end() - 1);
  const auto place = [&](std::int32_t row, std::int32_t col, const T& value) {
    const auto slot =
        static_cast<std::size_t>(next[static_cast<std::size_t>(row)]++);
    matrix.col_index_[slot] = col;
    matrix.values_[slot] = value;
  };
  for (const Pair& pair : pairs) {
    const Triplet<T> p = as_triplet(pair);
    place(p.col, p.row, p.value);
  }
  for (const Pair& pair : pairs) {
    const Triplet<T> p = as_triplet(pair);
    place(p.row, p.col, p.value);
  }
  return matrix;
}

}  // namespace qbp
