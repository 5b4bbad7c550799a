#include "mechanism/payments.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/waterfill.hpp"

namespace nashlb::mechanism {
namespace {

void check_bids(std::span<const double> bids, double phi) {
  if (bids.empty()) {
    throw std::invalid_argument("mechanism: no computers");
  }
  double capacity = 0.0;
  for (double b : bids) {
    if (!(b > 0.0) || !std::isfinite(b)) {
      throw std::invalid_argument("mechanism: bids must be finite and > 0");
    }
    capacity += 1.0 / b;
  }
  if (!(phi > 0.0) || !(phi < capacity)) {
    throw std::invalid_argument(
        "mechanism: need 0 < phi < claimed total capacity");
  }
}

/// Work assigned to `agent` when it bids `b` and the others bid as in
/// `bids`. Returns 0 when the claimed system cannot even carry phi (an
/// agent bidding absurdly slow simply drops out: the remaining computers
/// must cover the demand; if they cannot, the instance is infeasible and
/// the mechanism would reject it — for the rebate integral we only ever
/// raise one agent's bid, which monotonically shrinks its share, so the
/// zero return is the correct limit).
double work_of_agent_at_bid(std::span<const double> bids, double phi,
                            std::size_t agent, double b) {
  std::vector<double> rates(bids.size());
  double others_capacity = 0.0;
  for (std::size_t i = 0; i < bids.size(); ++i) {
    rates[i] = 1.0 / (i == agent ? b : bids[i]);
    if (i != agent) others_capacity += rates[i];
  }
  if (others_capacity + rates[agent] <= phi) {
    // Claimed capacity cannot carry the demand: the allocation is
    // undefined; treat the agent as excluded (its share at the stability
    // boundary tends to its full claimed rate, but the mechanism rejects
    // such bid vectors — see check in work_allocation/payment).
    throw std::invalid_argument(
        "mechanism: claimed capacity below demand during evaluation");
  }
  return core::waterfill_sqrt(rates, phi).lambda[agent];
}

}  // namespace

std::vector<double> work_allocation(std::span<const double> bids,
                                    double phi) {
  check_bids(bids, phi);
  std::vector<double> rates(bids.size());
  for (std::size_t i = 0; i < bids.size(); ++i) rates[i] = 1.0 / bids[i];
  return core::waterfill_sqrt(rates, phi).lambda;
}

double payment(std::span<const double> bids, double phi, std::size_t agent,
               std::size_t quad_points) {
  check_bids(bids, phi);
  if (agent >= bids.size()) {
    throw std::out_of_range("payment: agent out of range");
  }
  if (quad_points < 2) {
    throw std::invalid_argument("payment: need quad_points >= 2");
  }

  const double b0 = bids[agent];
  const double w0 = work_of_agent_at_bid(bids, phi, agent, b0);

  // Support of the rebate integral: find the cutoff bid beyond which the
  // agent receives no work. w_i is non-increasing in the bid, so double
  // until it vanishes, then bisect the exact boundary.
  double lo = b0;
  double hi = b0;
  // An agent can always be priced out as long as the others can carry
  // the demand; if they cannot, the integral diverges conceptually and
  // the payment is undefined — the mechanism requires redundancy.
  double others_capacity = 0.0;
  for (std::size_t i = 0; i < bids.size(); ++i) {
    if (i != agent) others_capacity += 1.0 / bids[i];
  }
  if (!(others_capacity > phi)) {
    throw std::invalid_argument(
        "payment: other computers must be able to carry the demand "
        "(agent is a monopolist; no finite truthful payment exists)");
  }
  for (int step = 0; step < 200; ++step) {
    hi *= 2.0;
    if (work_of_agent_at_bid(bids, phi, agent, hi) <= 0.0) break;
    lo = hi;
  }
  for (int step = 0; step < 100; ++step) {
    const double mid = 0.5 * (lo + hi);
    if (work_of_agent_at_bid(bids, phi, agent, mid) > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double cutoff = hi;

  // Composite Simpson over [b0, cutoff]. The work curve is continuous
  // and piecewise smooth (kinks where the active set changes); Simpson
  // at this resolution is far below the tests' tolerance.
  std::size_t n = quad_points;
  if (n % 2 == 1) ++n;
  const double h = (cutoff - b0) / static_cast<double>(n);
  double integral = 0.0;
  if (h > 0.0) {
    auto w_at = [&](double u) {
      return work_of_agent_at_bid(bids, phi, agent, u);
    };
    integral = w_at(b0) + w_at(cutoff);
    for (std::size_t k = 1; k < n; ++k) {
      const double u = b0 + h * static_cast<double>(k);
      integral += (k % 2 == 1 ? 4.0 : 2.0) * w_at(u);
    }
    integral *= h / 3.0;
  }
  return b0 * w0 + integral;
}

AgentOutcome evaluate_agent(std::span<const double> bids, double phi,
                            std::size_t agent, std::size_t quad_points) {
  AgentOutcome outcome;
  outcome.work = work_allocation(bids, phi)[agent];
  outcome.payment = payment(bids, phi, agent, quad_points);
  return outcome;
}

}  // namespace nashlb::mechanism
