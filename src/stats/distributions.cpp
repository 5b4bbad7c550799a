#include "stats/distributions.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace nashlb::stats {

Exponential::Exponential(double rate) : rate_(rate) {
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw std::invalid_argument("Exponential: rate must be finite and > 0");
  }
}

double Exponential::sample(Xoshiro256& rng) const noexcept {
  return -std::log(rng.next_double_open()) / rate_;
}

Normal::Normal(double mean, double stddev) : mean_(mean), stddev_(stddev) {
  if (!(stddev >= 0.0) || !std::isfinite(stddev) || !std::isfinite(mean)) {
    throw std::invalid_argument("Normal: need finite mean and stddev >= 0");
  }
}

double Normal::sample(Xoshiro256& rng) const noexcept {
  if (have_spare_) {
    have_spare_ = false;
    return mean_ + stddev_ * spare_;
  }
  const double u1 = rng.next_double_open();
  const double u2 = rng.next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  spare_ = r * std::sin(theta);
  have_spare_ = true;
  return mean_ + stddev_ * r * std::cos(theta);
}

Discrete::Discrete(std::span<const double> weights) {
  if (weights.empty()) {
    throw std::invalid_argument("Discrete: empty weight vector");
  }
  double total = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      throw std::invalid_argument(
          "Discrete: weights must be finite and non-negative");
    }
    total += w;
  }
  if (!(total > 0.0)) {
    throw std::invalid_argument("Discrete: weights sum to zero");
  }

  const std::size_t n = weights.size();
  norm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) norm_[i] = weights[i] / total;

  // Vose's stable alias-table construction.
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = norm_[i] * static_cast<double>(n);
  }
  std::vector<std::size_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.back();
    small.pop_back();
    const std::size_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Numerical leftovers: both queues drain to probability-1 cells.
  for (std::size_t i : large) prob_[i] = 1.0;
  for (std::size_t i : small) prob_[i] = 1.0;
}

std::size_t Discrete::sample(Xoshiro256& rng) const noexcept {
  const std::size_t col = static_cast<std::size_t>(
      rng.next_below(static_cast<std::uint64_t>(prob_.size())));
  return rng.next_double() < prob_[col] ? col : alias_[col];
}

double Discrete::probability(std::size_t i) const {
  if (i >= norm_.size()) {
    throw std::out_of_range("Discrete::probability: index out of range");
  }
  return norm_[i];
}

}  // namespace nashlb::stats
