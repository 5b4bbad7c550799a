#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace nashlb::util {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table: need at least one column");
  }
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::add_row: arity mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::str() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_cell = [&](const std::string& cell, std::size_t c) {
    out << std::string(width[c] - cell.size(), ' ') << cell;
    if (c + 1 < width.size()) out << "  ";
  };

  for (std::size_t c = 0; c < headers_.size(); ++c) emit_cell(headers_[c], c);
  out << '\n';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(width[c], '-');
    if (c + 1 < width.size()) out << "  ";
  }
  out << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) emit_cell(row[c], c);
    out << '\n';
  }
  return out.str();
}

std::string format_fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string format_sig(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

std::string format_percent(double ratio, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", digits, ratio * 100.0);
  return buf;
}

}  // namespace nashlb::util
