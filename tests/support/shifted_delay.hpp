// A delay model that exists for the tests: the generic best-reply solver
// (core/convex_reply.hpp) runs on any convex delay, and a constant
// network delay in front of an M/M/1 computer is the simplest one that
// is not M/M/1.
#pragma once

#include <vector>

#include "core/delay_model.hpp"

namespace nashlb::test_support {

using core::DelayModel;
using core::DelayModelPtr;

/// Decorator adding a constant communication delay to any node: jobs
/// sent to this computer pay `shift` seconds of network transfer on top
/// of the queueing delay. This is the model variant the authors' later
/// work (Penmatsa & Chronopoulos) analyzes; with the generic KKT solver
/// it needs no new theory — the marginal just gains a constant.
class ShiftedDelay final : public DelayModel {
 public:
  /// `shift >= 0`; `inner` must be non-null.
  ShiftedDelay(DelayModelPtr inner, double shift);
  [[nodiscard]] double response_time(double lambda) const override;
  [[nodiscard]] double response_time_derivative(double lambda) const override;
  [[nodiscard]] double capacity() const override;

 private:
  DelayModelPtr inner_;
  double shift_;
};

/// Convenience: M/M/1 models with per-computer communication delays.
[[nodiscard]] std::vector<DelayModelPtr> mm1_models_with_comm(
    const std::vector<double>& mu, const std::vector<double>& comm_delay);

}  // namespace nashlb::test_support
