// Selfish vs social: how much does decentralization cost?
//
//   ./selfish_vs_social [--users 10] [--skew 10]
//
// The introduction frames three operating points: the social optimum
// (GOS), the per-user Nash equilibrium (NASH), and the per-job Wardrop
// equilibrium (IOS). This example sweeps utilization and reports the
// "price of anarchy" style ratios D_NASH/D_GOS and D_IOS/D_GOS together
// with the fairness each point delivers — the quantitative version of the
// paper's argument that NASH buys decentralization and user-optimality at
// a tiny efficiency premium (cf. Roughgarden & Tardos's 4/3 bound for
// linear costs; M/M/1 costs are not linear, so watch the tail).
#include <cstdio>
#include <exception>

#include "schemes/gos.hpp"
#include "schemes/ios.hpp"
#include "schemes/metrics.hpp"
#include "schemes/nash.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/configs.hpp"

int main(int argc, char** argv) try {
  using namespace nashlb;
  const util::Args args(argc, argv, {"users", "skew"});
  const auto users = static_cast<std::size_t>(args.get_int("users", 10));
  const double skew = args.get_double("skew", 10.0);

  std::printf("16 computers (2 fast @ %.0fx, 14 slow), %zu users\n\n",
              skew, users);

  util::Table table({"utilization", "D_GOS (s)", "D_NASH/D_GOS",
                     "D_IOS/D_GOS", "fair GOS", "fair NASH", "fair IOS"});
  for (int pct = 10; pct <= 90; pct += 10) {
    const double rho = pct / 100.0;
    core::Instance inst =
        workload::skewness_instance(skew, rho);
    if (users != 10) {
      const double phi = inst.total_arrival_rate();
      inst.phi.clear();
      for (double f : workload::user_fractions(users)) {
        inst.phi.push_back(f * phi);
      }
    }
    const schemes::Metrics gos =
        schemes::evaluate(inst, schemes::GlobalOptimalScheme().solve(inst));
    const schemes::Metrics nash = schemes::evaluate(
        inst, schemes::NashScheme(core::Initialization::Proportional, 1e-6)
                  .solve(inst));
    const schemes::Metrics ios = schemes::evaluate(
        inst, schemes::IndividualOptimalScheme().solve(inst));
    table.add_row(
        {util::format_percent(rho),
         util::format_fixed(gos.overall_response_time, 4),
         util::format_fixed(
             nash.overall_response_time / gos.overall_response_time, 3),
         util::format_fixed(
             ios.overall_response_time / gos.overall_response_time, 3),
         util::format_fixed(gos.fairness, 3),
         util::format_fixed(nash.fairness, 3),
         util::format_fixed(ios.fairness, 3)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "reading: NASH's efficiency premium over GOS stays small while\n"
      "delivering fairness ~1 and needing no central authority; the\n"
      "per-job (IOS) equilibrium pays more, especially at medium skew.\n");
  return 0;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "selfish_vs_social: %s\n", ex.what());
  return 1;
}
