#include "obs/convergence.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "obs/json.hpp"
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

/// A double as a CSV cell: the shortest round-trip decimal, with the
/// non-finite values JSON writes as null spelled nan, inf or -inf.
std::string csv_number(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  return json_number(v);
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
  util::CsvWriter writer(path, convergence_trace_columns());
  for (const Row& row : rows_) {
    writer.add_row({std::to_string(row.round), csv_number(row.norm),
                    csv_number(row.eps_nash_gap), csv_number(row.potential),
                    csv_number(row.overall_cost),
                    std::to_string(row.active_set_churn),
                    csv_number(row.util_spread)});
  }
}

void EnabledConvergenceProbe::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("ConvergenceProbe: cannot open '" + path + "'");
  }
  for (const Row& row : rows_) {
    out << "{\"round\":" << row.round
        << ",\"norm\":" << json_number(row.norm)
        << ",\"eps_nash_gap\":" << json_number(row.eps_nash_gap)
        << ",\"potential\":" << json_number(row.potential)
        << ",\"overall_cost\":" << json_number(row.overall_cost)
        << ",\"active_set_churn\":" << row.active_set_churn
        << ",\"util_spread\":" << json_number(row.util_spread) << "}\n";
  }
}

}  // namespace detail
}  // namespace nashlb::obs
