#include "bench_support/table.hpp"

#include <algorithm>
#include <sstream>

namespace qbp {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)),
      alignment_(headers_.size(), Align::kRight) {}

void TextTable::set_alignment(std::vector<Align> alignment) {
  alignment_ = std::move(alignment);
  alignment_.resize(headers_.size(), Align::kRight);
}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  const auto emit_cell = [&](std::ostringstream& out, std::string_view text,
                             std::size_t column) {
    const std::size_t pad = widths[column] - text.size();
    if (alignment_[column] == Align::kRight) {
      out << std::string(pad, ' ') << text;
    } else {
      out << text << std::string(pad, ' ');
    }
  };

  const auto emit_rule = [&](std::ostringstream& out) {
    out << '+';
    for (std::size_t c = 0; c < widths.size(); ++c) {
      out << std::string(widths[c] + 2, '-') << '+';
    }
    out << '\n';
  };

  std::ostringstream out;
  emit_rule(out);
  out << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << ' ';
    emit_cell(out, headers_[c], c);
    out << " |";
  }
  out << '\n';
  emit_rule(out);
  for (const auto& row : rows_) {
    out << '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << ' ';
      emit_cell(out, row[c], c);
      out << " |";
    }
    out << '\n';
  }
  emit_rule(out);
  return out.str();
}

}  // namespace qbp
