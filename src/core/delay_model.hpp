// Delay models: the cost-function abstraction of the generalized game.
//
// The paper's analysis (and OPTIMAL's closed form) is specific to M/M/1
// sojourn times, but its game-theoretic machinery only needs each
// computer's expected response time T(load) to be continuous, strictly
// increasing and convex on [0, capacity) — the conditions under which
// Orda et al. [14] guarantee a unique Nash equilibrium. This interface
// lets the generic best-reply solver (convex_reply.hpp) run the same game
// on M/M/1 computers (validating against the closed form) and on M/M/c
// multi-core nodes (a genuine extension).
#pragma once

#include <memory>
#include <vector>

namespace nashlb::core {

/// A computer's delay characteristics as a function of total arrival rate.
class DelayModel {
 public:
  virtual ~DelayModel() = default;

  /// Expected response time at total load `lambda` (0 <= lambda < capacity).
  [[nodiscard]] virtual double response_time(double lambda) const = 0;

  /// d/d(lambda) of response_time. Must be > 0 (strictly increasing delay)
  /// for the equilibrium theory to apply.
  [[nodiscard]] virtual double response_time_derivative(
      double lambda) const = 0;

  /// Maximum sustainable arrival rate (the stability bound).
  [[nodiscard]] virtual double capacity() const = 0;
};

using DelayModelPtr = std::shared_ptr<const DelayModel>;

/// M/M/1 computer: T(l) = 1/(mu - l). The paper's model.
class MM1Delay final : public DelayModel {
 public:
  /// `mu > 0`; throws std::invalid_argument otherwise.
  explicit MM1Delay(double mu);
  [[nodiscard]] double response_time(double lambda) const override;
  [[nodiscard]] double response_time_derivative(double lambda) const override;
  [[nodiscard]] double capacity() const override { return mu_; }

 private:
  double mu_;
};

/// M/M/c node: c cores of rate mu_core each, single FCFS queue
/// (Erlang-C waiting time). The derivative is evaluated by a central
/// finite difference — Erlang-C is smooth in lambda but its closed-form
/// derivative is unwieldy, and the solver only needs ~1e-8 accuracy.
class MMCDelay final : public DelayModel {
 public:
  MMCDelay(double mu_core, unsigned servers);
  [[nodiscard]] double response_time(double lambda) const override;
  [[nodiscard]] double response_time_derivative(double lambda) const override;
  [[nodiscard]] double capacity() const override;

 private:
  double mu_;
  unsigned c_;
};

/// Convenience: M/M/1 models for a whole rate vector.
[[nodiscard]] std::vector<DelayModelPtr> mm1_models(
    const std::vector<double>& mu);

}  // namespace nashlb::core
