// Response-time *distributions* under different schemes — what the means
// in the paper's figures hide.
//
//   ./response_distribution [--utilization 0.6] [--scheme NASH]
//                           [--scheme2 PS] [--horizon 4000]
//
// Simulates the Table 1 system under two schemes and renders the
// response-time histograms side by side (plus tail percentiles computed
// from the streamed samples). Two schemes with similar means can differ
// sharply in the tail — the p99 a user actually experiences.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "schemes/registry.hpp"
#include "simmodel/system_sim.hpp"
#include "util/cli.hpp"
#include "workload/configs.hpp"

namespace {

using namespace nashlb;

struct DistributionReport {
  std::vector<double> samples;  // sorted: percentiles and histogram bars
  double mean = 0.0;
};

DistributionReport run(const core::Instance& inst, const std::string& name,
                       double horizon) {
  DistributionReport report;
  const schemes::SchemePtr scheme = schemes::make_scheme(name);
  const core::StrategyProfile profile = scheme->solve(inst);
  simmodel::SimConfig cfg;
  cfg.horizon = horizon;
  cfg.warmup = horizon * 0.05;
  cfg.on_sample = [&](std::size_t, double r) { report.samples.push_back(r); };
  const simmodel::SimRunResult res = simmodel::simulate(inst, profile, cfg);
  report.mean = res.overall_mean_response;
  std::sort(report.samples.begin(), report.samples.end());
  return report;
}

/// One line per equal-width bin over [lo, hi) with a bar of '#' scaled to
/// the fullest bin; counts come from binary searches in the sorted
/// samples.
std::string histogram(const std::vector<double>& sorted, double lo, double hi,
                      std::size_t bins, std::size_t max_width) {
  const double width = (hi - lo) / static_cast<double>(bins);
  std::vector<std::size_t> counts(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    const double left = lo + width * static_cast<double>(b);
    counts[b] = static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), left + width) -
        std::lower_bound(sorted.begin(), sorted.end(), left));
  }
  const std::size_t peak =
      std::max<std::size_t>(1, *std::max_element(counts.begin(), counts.end()));
  std::string out;
  char line[160];
  for (std::size_t b = 0; b < bins; ++b) {
    const double left = lo + width * static_cast<double>(b);
    std::snprintf(line, sizeof line, "[%9.4f, %9.4f) %8zu ", left,
                  left + width, counts[b]);
    out += line;
    out.append(counts[b] * max_width / peak, '#');
    out += '\n';
  }
  return out;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Args args(argc, argv,
                        {"utilization", "scheme", "scheme2", "horizon"});
  const double utilization = args.get_double("utilization", 0.6);
  const std::string scheme_a = args.get("scheme", "NASH");
  const std::string scheme_b = args.get("scheme2", "PS");
  const double horizon = args.get_double("horizon", 4000.0);

  const core::Instance inst = workload::table1_instance(utilization);
  std::printf("Table 1 system at %.0f%% utilization; %s vs %s; "
              "%.0f simulated seconds\n\n",
              100.0 * utilization, scheme_a.c_str(), scheme_b.c_str(),
              horizon);

  const DistributionReport a = run(inst, scheme_a, horizon);
  const DistributionReport b = run(inst, scheme_b, horizon);

  std::printf("%s response-time distribution (%zu jobs):\n%s\n",
              scheme_a.c_str(), a.samples.size(),
              histogram(a.samples, 0.0, 0.5, 25, 40).c_str());
  std::printf("%s response-time distribution (%zu jobs):\n%s\n",
              scheme_b.c_str(), b.samples.size(),
              histogram(b.samples, 0.0, 0.5, 25, 40).c_str());

  std::printf("           %10s  %10s\n", scheme_a.c_str(), scheme_b.c_str());
  std::printf("mean       %10.4f  %10.4f\n", a.mean, b.mean);
  for (double p : {0.5, 0.9, 0.99}) {
    std::printf("p%-8.0f  %10.4f  %10.4f\n", p * 100.0,
                percentile(a.samples, p), percentile(b.samples, p));
  }
  std::printf(
      "\nreading: scheme choice moves the whole distribution, not just\n"
      "the mean — the tail gap is typically wider than the mean gap.\n");
  return 0;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "response_distribution: %s\n", ex.what());
  return 1;
}
