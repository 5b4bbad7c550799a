// Structured trace sink: typed rows under a fixed schema, exportable as
// CSV (via util::CsvWriter) or JSON-lines.
//
// A TraceSink is a per-run table: simmodel::replicate appends one row
// per replication under replication_trace_columns(). (The dynamics and
// the ring record their rounds through core::RoundRecorder into an
// obs::ConvergenceProbe instead.) Producers declare the schema (column
// names) once; record() enforces arity so a trace can never silently
// skew.
//
// Like the metrics in obs/metrics.hpp, the sink has a no-op twin selected
// by NASHLB_OBS_ENABLED so instrumented call sites cost nothing in a
// disabled build. Instrumentation points take a `TraceSink*` (not owned,
// may be null) and guard with `if (obs::kEnabled && sink)`.
//
// Not thread-safe: record from one thread, or buffer per worker and
// append after joining (see simmodel::replicate for the pattern).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"  // NASHLB_OBS_ENABLED default + kEnabled

namespace nashlb::obs {

/// One cell of a trace row. Integers and reals stay typed so the JSON
/// exporter can emit them unquoted.
using Cell = std::variant<std::int64_t, double, std::string>;

/// Renders a cell for CSV output (integers plain, reals via %.17g-style
/// shortest round-trip, strings verbatim — CsvWriter handles quoting).
[[nodiscard]] std::string cell_to_string(const Cell& cell);

/// Renders a cell as a JSON value (strings quoted/escaped).
[[nodiscard]] std::string cell_to_json(const Cell& cell);

namespace detail {

class EnabledTraceSink {
 public:
  /// Declares the schema. Throws std::invalid_argument on an empty or
  /// duplicate column list.
  explicit EnabledTraceSink(std::vector<std::string> columns);

  [[nodiscard]] const std::vector<std::string>& columns() const noexcept {
    return columns_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }
  [[nodiscard]] const std::vector<std::vector<Cell>>& rows() const noexcept {
    return rows_;
  }

  /// Appends one row. Throws std::invalid_argument on arity mismatch.
  void record(std::vector<Cell> row);

  /// Column `col` of every row, converted to double (strings -> NaN).
  /// Throws std::out_of_range for an unknown column name.
  [[nodiscard]] std::vector<double> column_as_doubles(
      const std::string& col) const;

  /// Writes header + rows as RFC 4180 CSV. Throws std::runtime_error if
  /// the file cannot be opened.
  void write_csv(const std::string& path) const;
  /// Writes one JSON object per row ({"col": value, ...} lines).
  void write_jsonl(const std::string& path) const;

  void clear() noexcept { rows_.clear(); }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

class NullTraceSink {
 public:
  explicit NullTraceSink(std::vector<std::string>) noexcept {}
  [[nodiscard]] const std::vector<std::string>& columns() const noexcept {
    static const std::vector<std::string> kEmpty;
    return kEmpty;
  }
  [[nodiscard]] constexpr std::size_t size() const noexcept { return 0; }
  [[nodiscard]] constexpr bool empty() const noexcept { return true; }
  [[nodiscard]] const std::vector<std::vector<Cell>>& rows() const noexcept {
    static const std::vector<std::vector<Cell>> kEmpty;
    return kEmpty;
  }
  void record(std::vector<Cell>) noexcept {}
  [[nodiscard]] std::vector<double> column_as_doubles(
      const std::string&) const {
    return {};
  }
  void write_csv(const std::string&) const noexcept {}
  void write_jsonl(const std::string&) const noexcept {}
  void clear() noexcept {}
};

}  // namespace detail

#if NASHLB_OBS_ENABLED
using TraceSink = detail::EnabledTraceSink;
#else
using TraceSink = detail::NullTraceSink;
#endif

}  // namespace nashlb::obs
