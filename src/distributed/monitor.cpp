#include "distributed/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nashlb::distributed {

RateMonitor::RateMonitor(double noise_sigma, std::uint64_t seed)
    : noise_sigma_(noise_sigma), rng_(seed) {
  if (!(noise_sigma >= 0.0)) {
    throw std::invalid_argument("RateMonitor: noise_sigma must be >= 0");
  }
}

void RateMonitor::perturb(const core::Instance& inst,
                          std::span<double> avail) {
  if (noise_sigma_ == 0.0) return;

  const stats::Normal noise(0.0, noise_sigma_);
  for (std::size_t i = 0; i < avail.size(); ++i) {
    const double factor = std::exp(noise.sample(rng_));
    // Clamp into (0, true value]: an estimator can under-observe idle
    // capacity but cannot see more capacity than physically exists, and a
    // non-positive estimate would make the computer unusable forever.
    const double estimated = avail[i] * factor;
    avail[i] = std::clamp(estimated, 1e-6 * inst.mu[i], avail[i]);
  }
}

}  // namespace nashlb::distributed
