// Truthful payments for load balancing — the authors' direct follow-up
// to the reproduced paper (Grosu & Chronopoulos, "Algorithmic Mechanism
// Design for Load Balancing in Distributed Systems", IEEE CLUSTER 2002),
// built here on the same water-filling machinery.
//
// Setting: the computers themselves are strategic. Computer i privately
// knows its processing rate mu_i; equivalently its *cost parameter*
// t_i = 1/mu_i, the seconds of machine time one job consumes. The system
// asks each computer for a bid b_i (a claimed cost), computes the
// globally optimal allocation on the claimed rates 1/b_i (the GOS
// sqrt-rule water-filling of the base paper), and pays each computer for
// the work assigned to it. A computer's profit is payment minus true
// cost: P_i(b) - t_i * w_i(b), where w_i is its assigned arrival rate.
//
// This is exactly Archer & Tardos's one-parameter agent framework: the
// allocation w_i(b_i, b_-i) is non-increasing in the bid b_i (bidding
// slower costs you work — verified by tests), so the unique truthful
// payment rule is
//
//   P_i(b) = b_i w_i(b) + integral_{b_i}^{inf} w_i(u, b_-i) du .
//
// The integral has bounded support — once a computer claims to be slow
// enough it leaves the optimal allocation's active set and w_i vanishes
// — and is evaluated here by adaptive Simpson quadrature on the (known
// monotone) work curve. Under this rule truth-telling maximizes every
// computer's profit regardless of the other bids (dominant strategy),
// and profits are non-negative (voluntary participation).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace nashlb::mechanism {

/// The GOS work curve on claimed costs: allocation w_i for every
/// computer, where computer i's claimed rate is 1/bids[i]. `phi` is the
/// total arrival rate; requires every bid > 0 and
/// phi < sum_i (1/bids[i]); throws std::invalid_argument otherwise.
[[nodiscard]] std::vector<double> work_allocation(
    std::span<const double> bids, double phi);

/// Archer–Tardos payment to `agent` under bid vector `bids`.
/// `quad_points` controls the quadrature resolution of the rebate
/// integral (error is O(h^4); the default is ample for 1e-9 relative
/// accuracy on these smooth curves).
[[nodiscard]] double payment(std::span<const double> bids, double phi,
                             std::size_t agent,
                             std::size_t quad_points = 512);

/// Everything about one computer's outcome under a bid vector.
struct AgentOutcome {
  double work = 0.0;     ///< assigned arrival rate w_i(b)
  double payment = 0.0;  ///< P_i(b)
  /// Profit given the agent's *true* cost parameter (1/true rate).
  [[nodiscard]] double profit(double true_cost) const noexcept {
    return payment - true_cost * work;
  }
};

/// Computes work + payment for one agent.
[[nodiscard]] AgentOutcome evaluate_agent(std::span<const double> bids,
                                          double phi, std::size_t agent,
                                          std::size_t quad_points = 512);

}  // namespace nashlb::mechanism
