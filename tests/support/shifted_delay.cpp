#include "support/shifted_delay.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

namespace nashlb::test_support {

using core::MM1Delay;

ShiftedDelay::ShiftedDelay(DelayModelPtr inner, double shift)
    : inner_(std::move(inner)), shift_(shift) {
  if (!inner_) {
    throw std::invalid_argument("ShiftedDelay: null inner model");
  }
  if (!(shift >= 0.0) || !std::isfinite(shift)) {
    throw std::invalid_argument(
        "ShiftedDelay: shift must be finite and >= 0");
  }
}

double ShiftedDelay::response_time(double lambda) const {
  return inner_->response_time(lambda) + shift_;
}

double ShiftedDelay::response_time_derivative(double lambda) const {
  return inner_->response_time_derivative(lambda);
}

double ShiftedDelay::capacity() const { return inner_->capacity(); }

std::vector<DelayModelPtr> mm1_models_with_comm(
    const std::vector<double>& mu, const std::vector<double>& comm_delay) {
  if (mu.size() != comm_delay.size()) {
    throw std::invalid_argument("mm1_models_with_comm: size mismatch");
  }
  std::vector<DelayModelPtr> models;
  models.reserve(mu.size());
  for (std::size_t i = 0; i < mu.size(); ++i) {
    models.push_back(std::make_shared<ShiftedDelay>(
        std::make_shared<MM1Delay>(mu[i]), comm_delay[i]));
  }
  return models;
}

}  // namespace nashlb::test_support
