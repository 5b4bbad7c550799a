#include "util/csv.hpp"

#include <stdexcept>

namespace nashlb::util {

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : path_(path), out_(path), arity_(header.size()) {
  if (!out_) {
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
  if (arity_ == 0) {
    throw std::invalid_argument("CsvWriter: empty header");
  }
  write_row(header);
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  if (cells.size() != arity_) {
    throw std::invalid_argument("CsvWriter::add_row: arity mismatch");
  }
  write_row(cells);
  ++rows_written_;
}

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quote =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return cell;
  std::string quoted = "\"";
  for (char ch : cell) {
    if (ch == '"') quoted += '"';
    quoted += ch;
  }
  quoted += '"';
  return quoted;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
  // Flushed per row so a failed write (a full disk) throws here instead
  // of vanishing in the destructor's close.
  if (!out_.flush()) {
    throw std::runtime_error("CsvWriter: cannot write " + path_);
  }
}

}  // namespace nashlb::util
