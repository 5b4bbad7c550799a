// Convergence telemetry: per-round equilibrium-trajectory series.
//
// Rounds-to-eps-Nash is the scientific claim of Grosu & Chronopoulos'
// NASH scheme, and the quantity the related work (Berenbrink et al.;
// Yun & Proutiere — see PAPERS.md) frames its results in. The
// ConvergenceProbe gives that trajectory a first-class record: one row
// per best-reply round with
//
//   round            — 1-based round number,
//   norm             — the stopping norm sum_j |D_j - D_j_prev|,
//   eps_nash_gap     — max_j best-reply gain (NaN when the gap is
//                      uncomputable, e.g. a diverged Jacobi round),
//   potential        — Beckmann potential at the round's loads (NaN if
//                      a computer is overloaded),
//   overall_cost     — expected response time D(s) from the loads,
//   active_set_churn — users whose best-reply support (the Thm 2.1 cut)
//                      changed this round,
//   util_spread      — max_i lambda_i/mu_i - min_i lambda_i/mu_i.
//
// The probe itself is pure storage + export + summary over numbers the
// solver layer computes (obs must not depend on core); the recorder that
// derives the quantities from solver state is core::RoundRecorder
// (core/dynamics.hpp), which the dynamics (all three orders, class mode)
// and the distributed ring protocol call once per round.
//
// Build-time switch: `using ConvergenceProbe` aliases the enabled
// implementation or an empty no-op twin under -DNASHLB_OBS=OFF.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/config.hpp"

namespace nashlb::obs {

/// Column schema of the probe's CSV export, in row order. The export's
/// util::CsvWriter throws on a row of any other length.
std::vector<std::string> convergence_trace_columns();

namespace detail {

class EnabledConvergenceProbe {
 public:
  /// One recorded round; field order matches convergence_trace_columns.
  struct Row {
    std::int64_t round = 0;
    double norm = 0.0;
    double eps_nash_gap = 0.0;
    double potential = 0.0;
    double overall_cost = 0.0;
    std::int64_t active_set_churn = 0;
    double util_spread = 0.0;
  };

  /// Appends one round. Call once per completed round, in round order.
  void record_round(std::int64_t round, double norm, double eps_nash_gap,
                    double potential, double overall_cost,
                    std::int64_t active_set_churn, double util_spread);

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }
  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }

  /// First recorded round whose norm is <= tol, or 0 if none is.
  [[nodiscard]] std::int64_t rounds_to_tol(double tol) const noexcept;

  /// The last finite eps_nash_gap in the series (the certified distance
  /// from equilibrium at the end of the run), or NaN if no round
  /// recorded a finite gap.
  [[nodiscard]] double final_eps_nash() const noexcept;

  /// CSV with a convergence_trace_columns() header row. Throws
  /// std::runtime_error if the file cannot be opened or written.
  void write_csv(const std::string& path) const;

 private:
  std::vector<Row> rows_;
};

/// No-op twin for -DNASHLB_OBS=OFF: stateless, writes no files. The
/// read API mirrors the enabled twin (reporting an empty series) so
/// `if constexpr (obs::kEnabled)` blocks type-check in either build.
class NullConvergenceProbe {
 public:
  void record_round(std::int64_t, double, double, double, double, std::int64_t,
                    double) noexcept {}
  [[nodiscard]] std::size_t size() const noexcept { return 0; }
  [[nodiscard]] bool empty() const noexcept { return true; }
  [[nodiscard]] const std::vector<EnabledConvergenceProbe::Row>& rows()
      const noexcept {
    static const std::vector<EnabledConvergenceProbe::Row> kEmpty;
    return kEmpty;
  }
  [[nodiscard]] std::int64_t rounds_to_tol(double) const noexcept { return 0; }
  [[nodiscard]] double final_eps_nash() const noexcept { return 0.0; }
  void write_csv(const std::string&) const noexcept {}
};

}  // namespace detail

#if NASHLB_OBS_ENABLED
using ConvergenceProbe = detail::EnabledConvergenceProbe;
#else
using ConvergenceProbe = detail::NullConvergenceProbe;
#endif

}  // namespace nashlb::obs
