// Minimal CSV emission for machine-readable experiment output.
//
// Every bench binary can mirror its human-readable table into a CSV file so
// downstream plotting (gnuplot/matplotlib) can regenerate the paper's
// figures without re-running the sweep.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace nashlb::util {

/// Streams rows into a CSV file. Cells containing commas, quotes or
/// newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  /// Throws std::runtime_error if the file cannot be opened or written.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Appends one data row; throws std::invalid_argument on arity mismatch
  /// and std::runtime_error if the row cannot be written (a full disk).
  void add_row(const std::vector<std::string>& cells);

  /// Number of data rows written so far.
  [[nodiscard]] std::size_t row_count() const { return rows_written_; }

  /// Escapes a single cell per RFC 4180 (exposed for testing).
  [[nodiscard]] static std::string escape(const std::string& cell);

 private:
  void write_row(const std::vector<std::string>& cells);

  std::string path_;
  std::ofstream out_;
  std::size_t arity_;
  std::size_t rows_written_ = 0;
};

}  // namespace nashlb::util
