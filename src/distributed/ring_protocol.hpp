// The NASH distributed load balancing algorithm (§3) as a message-passing
// protocol on a simulated clock.
//
// The users form a logical ring. A token message carrying
// (iteration l, accumulated norm) circulates: on receipt, user j inspects
// the run queues (RateMonitor), computes its best reply with the OPTIMAL
// algorithm, installs the new strategy, adds |D_j^(l) - D_j^(l-1)| to the
// token's norm, and forwards the token after a compute delay. User 1
// (index 0 here) closes each round: it records the round norm and either
// starts the next round or, when norm <= epsilon, sends a STOP message
// around the ring — exactly the Send/Recv structure of the paper's
// pseudocode. Only one message is ever in flight, so the protocol runs as
// a loop over rounds and users: a round costs m × (compute + hop) of
// simulated time, and the STOP wave m − 1 more hops.
//
// With exact monitoring (noise_sigma = 0) the protocol performs the same
// sequence of best replies as core::best_reply_dynamics, so it converges
// to the same equilibrium in the same number of rounds — verified by the
// V2 bench and the integration tests. What the protocol adds is the
// deployment view: wall-clock (simulated) convergence latency and message
// count as functions of link latency and compute time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/dynamics.hpp"
#include "core/types.hpp"
#include "obs/convergence.hpp"

namespace nashlb::distributed {

/// Protocol parameters.
struct RingOptions {
  core::Initialization init = core::Initialization::Proportional;
  /// Acceptance tolerance epsilon on the per-round norm (seconds).
  double tolerance = 1e-4;
  /// Hard cap on rounds; exceeded => converged = false (0 runs none).
  std::size_t max_rounds = 1000;
  /// One-way message latency between ring neighbours (simulated seconds,
  /// finite and >= 0).
  double link_latency = 1e-3;
  /// Local time to inspect run queues + run OPTIMAL (simulated seconds,
  /// finite and >= 0).
  double compute_time = 5e-4;
  /// Log-normal sigma of the run-queue estimation error (0 = exact).
  double noise_sigma = 0.0;
  /// RNG seed for the estimation noise.
  std::uint64_t seed = 0x5eedULL;
  /// Optional convergence probe (not owned, may be null): one row per
  /// round close under the `convergence_trace_columns()` schema, recorded
  /// by the same core::RoundRecorder as the in-memory dynamics — so a
  /// protocol trajectory diffs directly against a dynamics one.
  obs::ConvergenceProbe* probe = nullptr;
};

/// Protocol outcome.
struct RingResult {
  core::StrategyProfile profile;  ///< final strategy profile
  bool converged = false;
  std::size_t rounds = 0;         ///< completed update rounds
  std::size_t messages = 0;       ///< total ring messages (incl. STOP wave)
  double finish_time = 0.0;       ///< simulated seconds until quiescence
  std::vector<double> norm_history;  ///< norm recorded at each round close
  std::vector<double> user_times;    ///< final D_j per user
};

/// Runs the protocol on instance `inst` until convergence or the round cap.
[[nodiscard]] RingResult run_ring_protocol(const core::Instance& inst,
                                           const RingOptions& options = {});

}  // namespace nashlb::distributed
