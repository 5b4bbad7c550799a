// Sampling distributions used by the M/M/1 simulation model.
//
// The paper's model needs exactly two stochastic primitives — exponential
// inter-arrival/service times (M/M/1, Kleinrock [9]) and a categorical
// draw over computers with probabilities given by a user's strategy vector.
// The categorical sampler uses Walker's alias method so dispatching a job
// costs O(1) regardless of the number of computers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/rng.hpp"

namespace nashlb::stats {

/// Exponential(rate) sampler via inversion: -log(U)/rate with U in (0,1].
class Exponential {
 public:
  /// `rate` must be strictly positive; throws std::invalid_argument else.
  explicit Exponential(double rate);

  /// Draws one variate (always finite and > 0).
  [[nodiscard]] double sample(Xoshiro256& rng) const noexcept;

  [[nodiscard]] double rate() const noexcept { return rate_; }
  [[nodiscard]] double mean() const noexcept { return 1.0 / rate_; }

 private:
  double rate_;
};

/// Normal(mean, stddev) sampler via Box–Muller (both variates used).
/// Used by the uncertainty extension (noisy run-queue estimates, A6).
class Normal {
 public:
  /// `stddev` must be >= 0; throws std::invalid_argument else.
  Normal(double mean, double stddev);
  [[nodiscard]] double sample(Xoshiro256& rng) const noexcept;
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double stddev() const noexcept { return stddev_; }

 private:
  double mean_;
  double stddev_;
  mutable bool have_spare_ = false;
  mutable double spare_ = 0.0;
};

/// Categorical distribution over {0..n-1} with O(1) sampling
/// (Walker/Vose alias method).
///
/// Weights need not be normalized; they must be non-negative, finite, and
/// sum to something positive. Entries with zero weight are never drawn.
class Discrete {
 public:
  /// Builds the alias table in O(n). Throws std::invalid_argument on
  /// negative/non-finite weights or an all-zero weight vector.
  explicit Discrete(std::span<const double> weights);

  /// Draws an index in [0, size()). O(1).
  [[nodiscard]] std::size_t sample(Xoshiro256& rng) const noexcept;

  /// Normalized probability of index `i` (for verification/tests).
  [[nodiscard]] double probability(std::size_t i) const;

  [[nodiscard]] std::size_t size() const noexcept { return prob_.size(); }

 private:
  std::vector<double> prob_;   // alias-table acceptance probabilities
  std::vector<std::size_t> alias_;
  std::vector<double> norm_;   // normalized input weights
};

}  // namespace nashlb::stats
