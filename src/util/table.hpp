// ASCII table rendering for benchmark and example output.
//
// The benchmark harness reproduces the paper's tables and figure series as
// text; this printer keeps that output aligned and diff-friendly.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace nashlb::util {

/// An ASCII table builder: set a header, append rows, render.
///
/// Cells are strings; numeric formatting is the caller's concern (see
/// `format_fixed` / `format_sig`). Rendering right-aligns each column to
/// its widest cell and separates the header with a rule, e.g.:
///
///   utilization  NASH    GOS     IOS     PS
///   -----------  ------  ------  ------  ------
///   10%          0.0142  0.0141  0.0142  0.0311
class Table {
 public:
  /// Creates a table with the given column headers. All rows appended later
  /// must have exactly `headers.size()` cells.
  explicit Table(std::vector<std::string> headers);

  /// Appends one row; throws std::invalid_argument on arity mismatch.
  void add_row(std::vector<std::string> cells);

  /// Number of data rows currently in the table.
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  /// Renders the table to a string (trailing newline included).
  [[nodiscard]] std::string str() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats `v` with `digits` digits after the decimal point ("%.*f").
[[nodiscard]] std::string format_fixed(double v, int digits);

/// Formats `v` with `digits` significant digits ("%.*g").
[[nodiscard]] std::string format_sig(double v, int digits);

/// Formats a ratio as a percentage with `digits` decimals, e.g. 0.6 -> "60%".
[[nodiscard]] std::string format_percent(double ratio, int digits = 0);

}  // namespace nashlb::util
