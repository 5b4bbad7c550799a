// V1 — §4.1 methodology validation: the discrete-event simulation agrees
// with the analytic M/M/1 model for every scheme.
//
// Table 1 system at 60% utilization; each scheme's profile is simulated
// with 5 replications (different random number streams, per the paper)
// and the across-replication mean ± 95% CI is compared against the
// analytic expected response time. The paper's acceptance criterion —
// "standard error less than 5% at the 95% confidence level" — is checked
// and printed.
//
// A second section validates the *distribution*, not just the mean: the
// per-computer sojourn histograms (obs::Histogram, merged across
// replications) of the NASH profile are compared at p50/p90/p99 against
// the exact M/M/1 sojourn quantile -ln(1-q)/(mu_i - lambda_i). Mirrored
// to sim_sojourn_quantiles.csv; tolerance 10% (15% at p99, where the
// per-computer sample of the tail is thinner).
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "common.hpp"
#include "core/cost.hpp"
#include "obs/histogram.hpp"
#include "schemes/registry.hpp"
#include "simmodel/replication.hpp"
#include "workload/configs.hpp"

int main() {
  using namespace nashlb;
  bench::banner("V1", "Simulation vs analytic model (all schemes)",
                "Table 1 system, 10 users, rho = 60%, 5 replications of "
                "3000 simulated seconds");

  const core::Instance inst = workload::table1_instance(0.6);

  util::Table table({"scheme", "analytic D (s)", "simulated D (s)",
                     "95% CI half-width", "rel. error", "CI<5%?"});
  auto csv = bench::csv("sim_validation",
                        {"scheme", "analytic", "simulated", "ci_half_width",
                         "relative_error"});

  std::optional<core::StrategyProfile> nash_profile;
  simmodel::ReplicatedResult nash_sim;

  for (const schemes::SchemePtr& scheme : schemes::paper_schemes(1e-6)) {
    const core::StrategyProfile profile = scheme->solve(inst);
    const double analytic = core::overall_response_time(inst, profile);

    simmodel::ReplicationConfig cfg;
    cfg.base.horizon = 3000.0;
    cfg.base.warmup = 200.0;
    cfg.replications = 5;
    const simmodel::ReplicatedResult sim =
        simmodel::replicate(inst, profile, cfg);
    if (scheme->name() == "NASH_P") {
      nash_profile = profile;
      nash_sim = sim;
    }

    const double rel_err =
        std::abs(sim.overall_response.mean - analytic) / analytic;
    table.add_row({scheme->name(), bench::num(analytic),
                   bench::num(sim.overall_response.mean),
                   bench::num(sim.overall_response.half_width),
                   util::format_percent(rel_err, 2),
                   sim.overall_response.relative_half_width() < 0.05
                       ? "yes"
                       : "NO"});
    if (csv) {
      csv->add_row({scheme->name(), bench::num(analytic),
                    bench::num(sim.overall_response.mean),
                    bench::num(sim.overall_response.half_width),
                    bench::num(rel_err)});
    }
    std::printf("%-6s total jobs simulated: %llu\n",
                scheme->name().c_str(),
                static_cast<unsigned long long>(sim.total_jobs));
  }
  std::printf("\n%s\n", table.str().c_str());

  // --- Sojourn-time quantiles (NASH profile) -----------------------------
  // Each computer is M/M/1, so its sojourn time is Exponential with rate
  // mu_i - lambda_i and exact quantile -ln(1-q)/(mu_i - lambda_i). The
  // simulated quantiles come from the per-facility obs::Histogram, which
  // replicate() merges across replications. Skipped in an obs-disabled
  // build (the histograms are no-op twins there).
  if (obs::kEnabled && nash_profile.has_value()) {
    const std::size_t n = inst.num_computers();
    const std::vector<obs::Histogram>& merged = nash_sim.computer_sojourn;

    util::Table qtable({"computer", "lambda (1/s)", "q", "exact (s)",
                        "simulated (s)", "rel. error", "<tol?"});
    auto qcsv = bench::csv("sim_sojourn_quantiles",
                           {"computer", "lambda", "mu", "q", "exact",
                            "simulated", "relative_error"});
    const double quantiles[] = {0.50, 0.90, 0.99};
    bool all_ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      double lambda = 0.0;
      for (std::size_t j = 0; j < inst.num_users(); ++j) {
        lambda += nash_profile->at(j, i) * inst.phi[j];
      }
      if (merged[i].count() == 0) continue;  // unused computer
      for (double q : quantiles) {
        const double exact = -std::log1p(-q) / (inst.mu[i] - lambda);
        const double simulated = merged[i].quantile(q);
        const double rel_err = std::abs(simulated - exact) / exact;
        const double tol = q > 0.95 ? 0.15 : 0.10;
        const bool ok = rel_err < tol;
        all_ok = all_ok && ok;
        qtable.add_row({std::to_string(i), bench::num(lambda), bench::num(q),
                        bench::num(exact), bench::num(simulated),
                        util::format_percent(rel_err, 2), ok ? "yes" : "NO"});
        if (qcsv) {
          qcsv->add_row({std::to_string(i), bench::num(lambda),
                         bench::num(inst.mu[i]), bench::num(q),
                         bench::num(exact), bench::num(simulated),
                         bench::num(rel_err)});
        }
      }
    }
    std::printf(
        "NASH sojourn quantiles vs exact M/M/1 (tolerance 10%%, 15%% at "
        "p99): %s\n%s\n",
        all_ok ? "all within tolerance" : "VIOLATIONS above",
        qtable.str().c_str());
  }
  return 0;
}
