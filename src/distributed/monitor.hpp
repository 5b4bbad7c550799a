// Run-queue monitor: how a user of the distributed algorithm observes the
// system.
//
// §2, remark after Theorem 2.2: "the available processing rate can be
// determined by statistical estimation of the run queue length of each
// processor". In simulation the exact available rates derive from the
// current strategy profile; the monitor reports them either exactly
// (the default — the protocol then reproduces the in-memory dynamics
// bit-for-bit) or with multiplicative log-normal estimation noise, which
// the A6 uncertainty bench uses to probe robustness.
#pragma once

#include <cstdint>
#include <span>

#include "core/types.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"

namespace nashlb::distributed {

/// Observes available processing rates on behalf of one user.
class RateMonitor {
 public:
  /// `noise_sigma` is the standard deviation of the log-normal
  /// multiplicative estimation error; 0 means exact observation.
  explicit RateMonitor(double noise_sigma = 0.0,
                       std::uint64_t seed = 0x5eedULL);

  /// Turns the exact available rates mu^j one user would see (e.g.
  /// computed in O(n) from an incremental core::LoadState) into the
  /// monitor's estimate, in place. Noisy estimates stay at or below the
  /// true rate, so a user never *plans* to overload a computer it can
  /// observe (a real estimator bounds its estimate by the processor's
  /// nominal rate the same way). A no-op when noise_sigma is 0 — no RNG
  /// draws are consumed, so exact monitoring stays bit-for-bit
  /// reproducible.
  void perturb(const core::Instance& inst, std::span<double> avail);

 private:
  double noise_sigma_;
  stats::Xoshiro256 rng_;
};

}  // namespace nashlb::distributed
