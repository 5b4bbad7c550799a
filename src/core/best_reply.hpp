// The OPTIMAL algorithm (paper §2, Theorems 2.1 & 2.2): one user's best
// reply against the rest of the strategy profile.
//
// With every other user's strategy frozen, user j minimizes
//   D_j(s_j) = sum_i s_ji / (mu^j_i - s_ji phi_j)
// over the simplex, where mu^j_i = mu_i - sum_{k != j} s_ki phi_k is the
// available rate at computer i as seen by user j. Substituting
// lambda_i = s_ji phi_j shows this is the sqrt-rule water-filling problem
// with capacities mu^j — see waterfill.hpp — so the best reply is unique
// and computable in O(n log n).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/load_state.hpp"
#include "core/types.hpp"
#include "core/waterfill.hpp"

namespace nashlb::core {

/// Scratch buffers for the allocation-free best-reply fast path: one
/// available-rates vector, one reply vector, and the waterfill sort
/// order. One workspace per sequential caller (dynamics loop, ring
/// protocol, bench) — reusing it across users keeps the capacity order
/// nearly sorted, so the waterfill re-sort stays near O(n).
struct BestReplyWorkspace {
  std::vector<double> avail;
  std::vector<double> reply;
  WaterfillWorkspace waterfill;

  void resize(std::size_t num_computers) {
    avail.resize(num_computers);
    reply.resize(num_computers);
  }
};

/// Best reply computed from raw available rates (the paper's
/// OPTIMAL(mu^j_1..mu^j_n, phi_j) signature): returns the load fractions
/// s_j1..s_jn. `available_rates` must all be positive and their sum must
/// strictly exceed `phi`; throws std::invalid_argument otherwise.
[[nodiscard]] std::vector<double> optimal_fractions(
    std::span<const double> available_rates, double phi);

/// Allocation-free `optimal_fractions`: writes the load fractions into
/// `out` (same size as `available_rates`), reusing the workspace's sort
/// order. Identical results to the allocating overload.
void optimal_fractions_into(std::span<const double> available_rates,
                            double phi, std::span<double> out,
                            WaterfillWorkspace& ws);

/// Allocation-free best reply on the incremental core: reads the
/// available rates from `state` (which must be consistent with `s`) in
/// O(n) instead of recomputing the m×n aggregate, and writes the reply
/// into `ws.reply`, returning a view of it (valid until the next call on
/// the same workspace). Throws std::invalid_argument when other users
/// overload a computer.
std::span<const double> best_reply_into(const Instance& inst,
                                        const StrategyProfile& s,
                                        const LoadState& state,
                                        std::size_t user,
                                        BestReplyWorkspace& ws);

/// As above with an explicit reply demand: the available rates back out
/// `demand` of the user's own flow and the waterfill allocates `demand`.
/// The plain overload forwards here with demand = phi_j (bitwise
/// identical). The class dynamics (core/user_classes) passes the class's
/// *representative* demand while `state` aggregates full class weights.
std::span<const double> best_reply_into(const Instance& inst,
                                        const StrategyProfile& s,
                                        const LoadState& state,
                                        std::size_t user, double demand,
                                        BestReplyWorkspace& ws);

/// The improvement available to `user` by unilaterally deviating to its
/// best reply: D_j(current) - D_j(best reply), always >= 0 up to rounding.
/// Zero (within tolerance) for every user simultaneously characterizes a
/// Nash equilibrium (Definition 2.1).
[[nodiscard]] double best_reply_gain(const Instance& inst,
                                     const StrategyProfile& s,
                                     std::size_t user);

/// As above, but with the aggregate loads lambda_i = sum_j s_ji phi_j
/// already computed — O(n log n) instead of O(m·n). Both overloads
/// evaluate the deviated response time directly from the available-rates
/// vector; no profile copy is made.
[[nodiscard]] double best_reply_gain(const Instance& inst,
                                     const StrategyProfile& s,
                                     std::size_t user,
                                     std::span<const double> loads);

}  // namespace nashlb::core
