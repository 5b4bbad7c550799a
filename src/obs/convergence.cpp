#include "obs/convergence.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"

namespace nashlb::obs {

std::vector<std::string> convergence_trace_columns() {
  return {"round",        "norm",
          "eps_nash_gap", "potential",
          "overall_cost", "active_set_churn",
          "util_spread"};
}

namespace detail {

namespace {

/// Row fields as Cells, in convergence_trace_columns() order, so the
/// exports share cell_to_string/cell_to_json with the trace layer.
std::vector<Cell> row_cells(const EnabledConvergenceProbe::Row& row) {
  return {row.round,        row.norm,
          row.eps_nash_gap, row.potential,
          row.overall_cost, row.active_set_churn,
          row.util_spread};
}

}  // namespace

void EnabledConvergenceProbe::record_round(std::int64_t round, double norm,
                                           double eps_nash_gap,
                                           double potential,
                                           double overall_cost,
                                           std::int64_t active_set_churn,
                                           double util_spread) {
  rows_.push_back(Row{round, norm, eps_nash_gap, potential, overall_cost,
                      active_set_churn, util_spread});
}

std::int64_t EnabledConvergenceProbe::rounds_to_tol(
    double tol) const noexcept {
  for (const Row& row : rows_) {
    if (row.norm <= tol) return row.round;
  }
  return 0;
}

double EnabledConvergenceProbe::final_eps_nash() const noexcept {
  for (std::size_t k = rows_.size(); k > 0; --k) {
    const double gap = rows_[k - 1].eps_nash_gap;
    if (std::isfinite(gap)) return gap;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

void EnabledConvergenceProbe::write_csv(const std::string& path) const {
  const std::vector<std::string> columns = convergence_trace_columns();
  util::CsvWriter writer(path, columns);
  std::vector<std::string> cells(columns.size());
  for (const Row& row : rows_) {
    const std::vector<Cell> as_cells = row_cells(row);
    for (std::size_t c = 0; c < as_cells.size(); ++c) {
      cells[c] = cell_to_string(as_cells[c]);
    }
    // nashlb-analyzer: allow(trace-arity) -- the row is sized from
    // convergence_trace_columns() and filled from row_cells() above, not
    // a braced literal the rule could count
    writer.add_row(cells);
  }
}

void EnabledConvergenceProbe::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("ConvergenceProbe: cannot open '" + path + "'");
  }
  const std::vector<std::string> columns = convergence_trace_columns();
  for (const Row& row : rows_) {
    const std::vector<Cell> as_cells = row_cells(row);
    out << '{';
    for (std::size_t c = 0; c < as_cells.size(); ++c) {
      if (c != 0) out << ',';
      out << json_quote(columns[c]) << ':' << cell_to_json(as_cells[c]);
    }
    out << "}\n";
  }
}

}  // namespace detail
}  // namespace nashlb::obs
