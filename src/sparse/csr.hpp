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
#include <span>
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

  /// Build the symmetric n x n matrix S with S[p.row][p.col] =
  /// S[p.col][p.row] = p.value for each pair p: two counting passes,
  /// O(n + pairs).  This is the one builder: Netlist::finalize() and
  /// TimingConstraints::finalize() sort and merge their pairs, then fill
  /// through here.  The pair list must be in canonical upper-triangle
  /// order -- strictly ascending by (row, col) with row < col, endpoints in
  /// range -- which is verified in one linear pass (a violation is a
  /// contract failure, not a malformed matrix).  Every row's columns come
  /// out ascending; a stored T{} is kept (a zero-slack timing bound means
  /// something).
  static Csr from_symmetric_pairs(std::int32_t n,
                                  std::span<const Triplet<T>> pairs);

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
Csr<T> Csr<T>::from_symmetric_pairs(std::int32_t n,
                                    std::span<const Triplet<T>> pairs) {
  QBP_CHECK(n >= 0) << "Csr shape must be non-negative (" << n << " x " << n
                    << ")";
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const Triplet<T>& p = pairs[k];
    QBP_CHECK(p.row >= 0 && p.row < p.col && p.col < n)
        << "pair (" << p.row << ", " << p.col
        << ") not upper-triangle in [0, " << n << ")";
    QBP_CHECK(k == 0 || pairs[k - 1].row < p.row ||
              (pairs[k - 1].row == p.row && pairs[k - 1].col < p.col))
        << "pairs must be strictly ascending by (row, col)";
  }

  Csr matrix;
  matrix.rows_ = n;
  matrix.cols_ = n;
  matrix.row_start_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Triplet<T>& p : pairs) {
    ++matrix.row_start_[static_cast<std::size_t>(p.row) + 1];
    ++matrix.row_start_[static_cast<std::size_t>(p.col) + 1];
  }
  for (std::int32_t r = 0; r < n; ++r) {
    matrix.row_start_[static_cast<std::size_t>(r) + 1] +=
        matrix.row_start_[static_cast<std::size_t>(r)];
  }
  matrix.col_index_.resize(2 * pairs.size());
  matrix.values_.resize(2 * pairs.size());
  std::vector<std::int64_t> cursor(matrix.row_start_.begin(),
                                   matrix.row_start_.end() - 1);
  // Row j's columns below the diagonal all come from pairs with col == j
  // (their rows ascend with the pair order), the columns above it from
  // pairs with row == j (cols ascend likewise); filling the lower half
  // first keeps every row's column list ascending.
  for (const Triplet<T>& p : pairs) {
    const auto slot =
        static_cast<std::size_t>(cursor[static_cast<std::size_t>(p.col)]++);
    matrix.col_index_[slot] = p.row;
    matrix.values_[slot] = p.value;
  }
  for (const Triplet<T>& p : pairs) {
    const auto slot =
        static_cast<std::size_t>(cursor[static_cast<std::size_t>(p.row)]++);
    matrix.col_index_[slot] = p.col;
    matrix.values_[slot] = p.value;
  }
  return matrix;
}

}  // namespace qbp
