// P1 — performance baseline profile.
//
// The machine-readable "trajectory to beat" for future performance work:
// runs the Table 1 system (10 users, 60% utilization) under every scheme
// in the registry and records, per scheme, solver wall time (min and mean
// over repeats), iteration count, the final best-reply gap, and the
// analytic response time / fairness of the allocation. Three further
// sections exercise the observability layer end-to-end:
//
//   * a per-round convergence trace of the NASH dynamics (the Figure 2
//     experiment, recorded by the library itself through an
//     obs::ConvergenceProbe instead of a bespoke bench loop);
//   * the job throughput of one single-threaded replicated DES system
//     simulation;
//   * the DES kernel + facility counters for a canonical M/M/1 run.
//
// The per-scheme solve times are collected in an obs::Histogram, so the
// baseline carries the latency *distribution* (p50/p95/p99), not just min
// and mean. Every wall time here is read by this bench
// (bench::now_seconds); the library itself reads no clock.
//
// Outputs (all under bench_results/):
//   profile_baseline.csv      one row per scheme (the headline artifact)
//   profile_nash_trace.csv    per-round NASH_P and NASH_0 probe rows
//   profile_nash_trace.jsonl  the NASH_P probe rows as JSON-lines
//   profile_des_counters.csv  DES kernel/facility counters and timers
#include <cstdio>
#include <functional>
#include <memory>
#include <utility>

#include "common.hpp"
#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "des/facility.hpp"
#include "des/simulator.hpp"
#include "obs/convergence.hpp"
#include "obs/metrics.hpp"
#include "schemes/metrics.hpp"
#include "schemes/nash.hpp"
#include "schemes/registry.hpp"
#include "simmodel/replication.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"
#include "util/plot.hpp"
#include "workload/configs.hpp"

namespace {

constexpr double kUtilization = 0.6;
constexpr int kSolveRepeats = 25;

/// Times `repeats` solves of `scheme` into a latency histogram (enough
/// samples for the p50/p95/p99 columns to be meaningful).
nashlb::obs::Histogram time_solves(const nashlb::schemes::Scheme& scheme,
                                   const nashlb::core::Instance& inst,
                                   int repeats) {
  using namespace nashlb;
  obs::Histogram hist;
  for (int r = 0; r < repeats; ++r) {
    const double start = bench::now_seconds();
    const core::StrategyProfile p = scheme.solve(inst);
    (void)p;
    hist.record(bench::now_seconds() - start);
  }
  return hist;
}

}  // namespace

int main() {
  using namespace nashlb;
  bench::banner("P1", "performance baseline profile",
                "Table 1 system, 10 users, utilization 60%; all registered "
                "schemes");
  // Re-stamp the banner's sidecar with this run's parameters.
  obs::RunManifest manifest = bench::run_manifest("P1");
  manifest.set("utilization", kUtilization);
  manifest.set("solve_repeats", static_cast<std::int64_t>(kSolveRepeats));
  bench::write_manifest(manifest, "P1");

  const core::Instance inst = workload::table1_instance(kUtilization);

  // --- Section 1: per-scheme solver baseline -----------------------------
  util::Table table({"scheme", "solve min (s)", "solve p50 (s)",
                     "solve p99 (s)", "iterations", "best-reply gap (s)",
                     "overall D (s)", "fairness"});
  auto baseline = bench::csv(
      "profile_baseline",
      {"scheme", "solve_seconds_min", "solve_seconds_mean",
       "solve_seconds_p50", "solve_seconds_p95", "solve_seconds_p99",
       "iterations", "best_reply_gap", "overall_response", "fairness"});
  for (const std::string& name : schemes::registered_scheme_names()) {
    const schemes::SchemePtr scheme = schemes::make_scheme(name);
    // Warm-up solve (page in code/data), then timed repeats.
    const core::StrategyProfile profile = scheme->solve(inst);
    const obs::Histogram solve_hist = time_solves(*scheme, inst, kSolveRepeats);

    // Iteration count: the NASH variants iterate best replies; every other
    // registered scheme is a one-shot closed-form/convex solve.
    std::size_t iterations = 1;
    if (const auto* nash =
            dynamic_cast<const schemes::NashScheme*>(scheme.get())) {
      iterations = nash->solve_with_trace(inst).iterations;
    }

    const double gap = core::max_best_reply_gain(inst, profile);
    const schemes::Metrics metrics = schemes::evaluate(inst, profile);

    table.add_row({name, bench::num(solve_hist.min()),
                   bench::num(solve_hist.p50()), bench::num(solve_hist.p99()),
                   std::to_string(iterations), bench::num(gap),
                   bench::num(metrics.overall_response_time),
                   bench::num(metrics.fairness)});
    if (baseline) {
      baseline->add_row({name, bench::num(solve_hist.min()),
                         bench::num(solve_hist.mean()),
                         bench::num(solve_hist.p50()),
                         bench::num(solve_hist.quantile(0.95)),
                         bench::num(solve_hist.p99()),
                         std::to_string(iterations), bench::num(gap),
                         bench::num(metrics.overall_response_time),
                         bench::num(metrics.fairness)});
    }
  }
  std::printf("%s\n", table.str().c_str());

  // --- Section 2: NASH convergence trace via the obs layer ---------------
  // The same experiment as Figure 2 (eps = 1e-9 so the full decay is
  // visible), but the per-round records now come from the dynamics itself
  // through a ConvergenceProbe: norm, eps-Nash gap, potential, overall
  // cost, active-set churn and utilization spread per round.
  core::DynamicsOptions dyn_opts;
  dyn_opts.tolerance = 1e-9;
  dyn_opts.max_iterations = 500;

  obs::ConvergenceProbe probe_p;
  dyn_opts.init = core::Initialization::Proportional;
  dyn_opts.probe = &probe_p;
  const core::DynamicsResult rp = core::best_reply_dynamics(inst, dyn_opts);

  obs::ConvergenceProbe probe_0;
  dyn_opts.init = core::Initialization::Zero;
  dyn_opts.probe = &probe_0;
  const core::DynamicsResult r0 = core::best_reply_dynamics(inst, dyn_opts);

  std::vector<std::string> trace_columns = obs::convergence_trace_columns();
  trace_columns.insert(trace_columns.begin(), "variant");
  auto trace_csv = bench::csv("profile_nash_trace", trace_columns);
  if (trace_csv) {
    const auto mirror = [&](const char* variant,
                            const obs::ConvergenceProbe& probe) {
      for (const auto& row : probe.rows()) {
        trace_csv->add_row(
            {variant, std::to_string(row.round), bench::num(row.norm),
             bench::num(row.eps_nash_gap), bench::num(row.potential),
             bench::num(row.overall_cost),
             std::to_string(row.active_set_churn),
             bench::num(row.util_spread)});
      }
    };
    mirror("NASH_P", probe_p);
    mirror("NASH_0", probe_0);
  }
  probe_p.write_jsonl("bench_results/profile_nash_trace.jsonl");

  util::PlotOptions plot_opts;
  plot_opts.log_y = true;
  plot_opts.height = 12;
  std::printf(
      "NASH convergence trace (library-recorded; log norm vs iteration):\n"
      "%s\n",
      util::render_plot({{"0 NASH_0", r0.norm_history},
                         {"P NASH_P", rp.norm_history}},
                        plot_opts)
          .c_str());
  std::printf(
      "NASH_P: %zu rounds, final gap %s s; NASH_0: %zu rounds "
      "(Fig. 2 shape: geometric decay, NASH_P starts lower)\n\n",
      rp.iterations, bench::num(core::max_best_reply_gain(inst, rp.profile)).c_str(),
      r0.iterations);

  // --- Section 3: DES system simulation throughput -----------------------
  // One worker, so the call's wall time is the replications' CPU time.
  simmodel::ReplicationConfig rep_cfg;
  rep_cfg.base.horizon = 300.0;
  rep_cfg.base.warmup = 30.0;
  rep_cfg.replications = 5;
  rep_cfg.threads = 1;
  const double rep_start = bench::now_seconds();
  const simmodel::ReplicatedResult rep =
      simmodel::replicate(inst, rp.profile, rep_cfg);
  const double rep_seconds = bench::now_seconds() - rep_start;
  std::printf(
      "DES system sim: %llu jobs over %zu replications, %s CPU-seconds "
      "total -> %s jobs/CPU-second\n",
      static_cast<unsigned long long>(rep.total_jobs), rep.runs.size(),
      bench::num(rep_seconds).c_str(),
      bench::num(static_cast<double>(rep.total_jobs) / rep_seconds).c_str());

  // --- Section 4: DES kernel/facility counters (canonical M/M/1) ---------
  {
    des::Simulator sim;
    des::Facility server(sim, "mm1", 1);
    stats::Xoshiro256 rng(0x9e3779b97f4a7c15ULL);
    const stats::Exponential arrival(60.0), service(100.0);  // rho = 0.6
    std::function<void(des::SimTime)> arrive = [&](des::SimTime) {
      server.request(service.sample(rng), [](des::SimTime) {});
      sim.schedule(arrival.sample(rng), arrive);
    };
    const double start = bench::now_seconds();
    sim.schedule(arrival.sample(rng), arrive);
    sim.run(1'000'000);
    const double seconds = bench::now_seconds() - start;

    obs::Registry reg;
    sim.publish_metrics(reg);
    server.publish_metrics(reg, sim.now());
    reg.timer("host.wall").add_batch(seconds, sim.events_executed());
    reg.write_csv("bench_results/profile_des_counters.csv");
    std::printf(
        "DES kernel: %llu events in %s s -> %s events/second "
        "(mm1 utilization %s)\n",
        static_cast<unsigned long long>(sim.events_executed()),
        bench::num(seconds).c_str(),
        bench::num(static_cast<double>(sim.events_executed()) / seconds)
            .c_str(),
        bench::num(server.utilization(sim.now())).c_str());
  }

  std::printf(
      "\nwrote bench_results/profile_baseline.csv (+ nash trace, "
      "des counters) — the baseline future perf PRs measure against; see "
      "docs/OBSERVABILITY.md for schemas.\n");
  return 0;
}
