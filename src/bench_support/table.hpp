// Plain-text table rendering for the experiment harness.
//
// Renders the same row/column structure as the paper's Tables I-III so that
// `bench_runner --suite table2` output can be eyeballed against the
// original side by side.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace qbp {

class TextTable {
 public:
  enum class Align { kLeft, kRight };

  explicit TextTable(std::vector<std::string> headers);

  /// Per-column alignment; defaults to right-aligned for all columns.
  void set_alignment(std::vector<Align> alignment);

  void add_row(std::vector<std::string> cells);

  /// Render with single-space-padded `|` separators and a header rule.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<Align> alignment_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace qbp
