#include "core/types.hpp"

#include <cmath>
#include <stdexcept>

#include "util/contracts.hpp"

namespace nashlb::core {

double Instance::total_arrival_rate() const noexcept {
  double sum = 0.0;
  for (double p : phi) sum += p;
  return sum;
}

double Instance::total_capacity() const noexcept {
  double sum = 0.0;
  for (double m : mu) sum += m;
  return sum;
}

double Instance::system_utilization() const noexcept {
  return total_arrival_rate() / total_capacity();
}

void Instance::validate() const {
  if (mu.empty()) {
    throw std::invalid_argument("Instance: need at least one computer");
  }
  if (phi.empty()) {
    throw std::invalid_argument("Instance: need at least one user");
  }
  for (std::size_t i = 0; i < mu.size(); ++i) {
    if (!(mu[i] > 0.0) || !std::isfinite(mu[i])) {
      throw std::invalid_argument("Instance: mu[" + std::to_string(i) +
                                  "] must be finite and > 0");
    }
  }
  for (std::size_t j = 0; j < phi.size(); ++j) {
    if (!(phi[j] > 0.0) || !std::isfinite(phi[j])) {
      throw std::invalid_argument("Instance: phi[" + std::to_string(j) +
                                  "] must be finite and > 0");
    }
  }
  // Finite rates can still overflow their sum, and Phi < inf would then
  // pass the stability check.
  const double capacity = total_capacity();
  if (!std::isfinite(capacity)) {
    throw std::invalid_argument("Instance: total capacity must be finite");
  }
  if (!(total_arrival_rate() < capacity)) {
    throw std::invalid_argument(
        "Instance: total arrival rate must be < total capacity "
        "(system stability)");
  }
}

StrategyProfile::StrategyProfile(std::size_t num_users,
                                 std::size_t num_computers)
    : m_(num_users), n_(num_computers), data_(num_users * num_computers, 0.0) {
  if (m_ == 0 || n_ == 0) {
    throw std::invalid_argument("StrategyProfile: empty dimensions");
  }
}

StrategyProfile StrategyProfile::proportional(const Instance& inst) {
  inst.validate();
  StrategyProfile s(inst.num_users(), inst.num_computers());
  const double cap = inst.total_capacity();
  for (std::size_t j = 0; j < s.m_; ++j) {
    for (std::size_t i = 0; i < s.n_; ++i) {
      s.data_[j * s.n_ + i] = inst.mu[i] / cap;
    }
  }
  return s;
}

double StrategyProfile::at(std::size_t user, std::size_t computer) const {
  if (user >= m_ || computer >= n_) {
    throw std::out_of_range("StrategyProfile::at: index out of range");
  }
  return data_[user * n_ + computer];
}

void StrategyProfile::set(std::size_t user, std::size_t computer,
                          double fraction) {
  if (user >= m_ || computer >= n_) {
    throw std::out_of_range("StrategyProfile::set: index out of range");
  }
  data_[user * n_ + computer] = fraction;
}

std::span<const double> StrategyProfile::row(std::size_t user) const {
  if (user >= m_) {
    throw std::out_of_range("StrategyProfile::row: user out of range");
  }
  return {data_.data() + user * n_, n_};
}

void StrategyProfile::set_row(std::size_t user,
                              std::span<const double> strategy) {
  if (user >= m_) {
    throw std::out_of_range("StrategyProfile::set_row: user out of range");
  }
  if (strategy.size() != n_) {
    throw std::invalid_argument("StrategyProfile::set_row: size mismatch");
  }
  std::copy(strategy.begin(), strategy.end(), data_.begin() + static_cast<std::ptrdiff_t>(user * n_));
}

std::vector<double> StrategyProfile::loads(const Instance& inst) const {
  if (inst.num_users() != m_ || inst.num_computers() != n_) {
    throw std::invalid_argument("StrategyProfile::loads: instance mismatch");
  }
  std::vector<double> lambda(n_, 0.0);
  for (std::size_t j = 0; j < m_; ++j) {
    const double rate = inst.phi[j];
    for (std::size_t i = 0; i < n_; ++i) {
      lambda[i] += data_[j * n_ + i] * rate;
    }
  }
  return lambda;
}

std::vector<double> StrategyProfile::available_rates(
    const Instance& inst, std::size_t user) const {
  if (user >= m_) {
    throw std::out_of_range("available_rates: user out of range");
  }
  std::vector<double> avail = loads(inst);
  const double rate = inst.phi[user];
  for (std::size_t i = 0; i < n_; ++i) {
    const double others = avail[i] - data_[user * n_ + i] * rate;
    avail[i] = inst.mu[i] - others;
  }
  return avail;
}

bool StrategyProfile::is_feasible(const Instance& inst, double tol) const {
  if (inst.num_users() != m_ || inst.num_computers() != n_) return false;
  for (std::size_t j = 0; j < m_; ++j) {
    double total = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      const double f = data_[j * n_ + i];
      if (!(f >= -tol) || !std::isfinite(f)) return false;  // positivity
      total += f;
    }
    if (std::fabs(total - 1.0) > tol) return false;  // conservation
  }
  const std::vector<double> lambda = loads(inst);
  for (std::size_t i = 0; i < n_; ++i) {
    if (!(lambda[i] < inst.mu[i])) return false;  // stability
  }
  return true;
}

double StrategyProfile::max_difference(const StrategyProfile& other) const {
  if (other.m_ != m_ || other.n_ != n_) {
    throw std::invalid_argument("max_difference: dimension mismatch");
  }
  double worst = 0.0;
  for (std::size_t k = 0; k < data_.size(); ++k) {
    worst = std::max(worst, std::fabs(data_[k] - other.data_[k]));
  }
  // A max-norm distance is nonnegative and finite for finite profiles;
  // NaN here (a poisoned fraction) would make every convergence test
  // comparing against a tolerance vacuously pass.
  NASHLB_ENSURE(worst >= 0.0, "max_difference produced %.17g", worst);
  return worst;
}

}  // namespace nashlb::core
